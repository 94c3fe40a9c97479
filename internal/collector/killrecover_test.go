// Kill-recover chaos harness for the durable collector: a real child
// process serves ingest over a fault-injected wire, the parent SIGKILLs
// it repeatedly mid-stream, and after every kill the write-ahead log is
// recovered in-process and audited against the acked prefix. The test
// lives in an external package so it can use the oracle's multiset
// comparison without an import cycle (oracle imports collector).
package collector_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"strconv"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/faultconn"
	"netseer/internal/fevent"
	"netseer/internal/oracle"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// TestMain routes the re-executed test binary into the collector child
// when the harness env var is set; otherwise it runs the tests normally.
func TestMain(m *testing.M) {
	if os.Getenv("NETSEER_WAL_CHILD") == "1" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// childMain is one life of the durable collector: recover the store from
// the WAL, serve ingest on the harness's listener (its first extra file)
// through a faulty wire, checkpoint aggressively, and run until
// SIGKILLed.
func childMain() {
	die := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "wal child: "+format+"\n", args...)
		os.Exit(1)
	}
	dir := os.Getenv("NETSEER_WAL_DIR")
	seed, _ := strconv.ParseInt(os.Getenv("NETSEER_WAL_SEED"), 10, 64)

	// Tiny segments so a few hundred batches exercise rotation and the
	// kills land in interesting places.
	w, err := wal.Open(dir, wal.Options{SegmentBytes: 16 << 10})
	if err != nil {
		die("open wal: %v", err)
	}
	store, _, err := collector.RecoverStore(w)
	if err != nil {
		die("recover: %v", err)
	}
	ln, err := net.FileListener(os.NewFile(3, "harness listener"))
	if err != nil {
		die("listener: %v", err)
	}
	fln := faultconn.Wrap(ln, faultconn.Config{
		Seed:       seed,
		ResetAfter: 8192,
		MaxChunk:   32,
	})
	srv, err := collector.NewServerConfig(store, "", collector.ServerConfig{Listener: fln, WAL: w})
	if err != nil {
		die("serve: %v", err)
	}
	defer srv.Close()
	// Checkpoint far more often than production would, so kills race
	// segment cuts, snapshot installs and truncations.
	for {
		time.Sleep(25 * time.Millisecond)
		if err := srv.Checkpoint(); err != nil {
			die("checkpoint: %v", err)
		}
	}
}

func childFlow(i int) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: pkt.IP(10, 9, 0, 1) + uint32(i), DstIP: pkt.IP(10, 9, 1, 2),
		SrcPort: uint16(2000 + i), DstPort: 443, Proto: pkt.ProtoTCP}
}

func childEvent(i int) fevent.Event {
	return fevent.Event{Type: fevent.TypeDrop, Flow: childFlow(i), Hash: childFlow(i).Hash(),
		DropCode: fevent.DropNoRoute, SwitchID: 7, Timestamp: sim.Time(i + 1)}
}

// recoverAudit opens the WAL (no child may be running), rebuilds the
// store, and returns it.
func recoverAudit(t *testing.T, dir string) *collector.Store {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("audit open wal: %v", err)
	}
	defer w.Close()
	store, _, err := collector.RecoverStore(w)
	if err != nil {
		t.Fatalf("audit recover: %v", err)
	}
	return store
}

// TestKillRecoverAckedNeverLost is the durability contract end to end:
// a child collector process is SIGKILLed over and over mid-ingest, with
// fault injection on the wire and checkpoints racing the kills, and
// after every kill the recovered store must hold every batch the client
// had been acked for — exactly once, never a duplicate, never a loss.
func TestKillRecoverAckedNeverLost(t *testing.T) {
	if os.Getenv("NETSEER_WAL_CHILD") == "1" {
		t.Skip("child process")
	}
	dir := t.TempDir()
	// The harness holds the one listener every child life serves, so no
	// other process can take its port between lives: a client dialling
	// then waits in its backlog for the next life.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	lnFile, err := ln.(*net.TCPListener).File()
	if err != nil {
		t.Fatal(err)
	}
	defer lnFile.Close()
	addr := ln.Addr().String()

	spawn := func(gen int) *exec.Cmd {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(),
			"NETSEER_WAL_CHILD=1",
			"NETSEER_WAL_DIR="+dir,
			"NETSEER_WAL_SEED="+strconv.Itoa(1000+gen),
		)
		cmd.ExtraFiles = []*os.File{lnFile}
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("spawn child %d: %v", gen, err)
		}
		return cmd
	}
	cmd := spawn(0)
	childUp := true
	defer func() {
		if childUp {
			cmd.Process.Kill()
			cmd.Wait()
		}
	}()

	cl := collector.NewClientConfig(addr, collector.ClientConfig{
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		FlushTimeout: 30 * time.Second,
		CloseTimeout: 5 * time.Second,
	})
	defer cl.Close()

	const total = 250
	delivered := make(chan struct{})
	go func() {
		defer close(delivered)
		for i := 0; i < total; i++ {
			cl.Deliver(&fevent.Batch{SwitchID: 7, Timestamp: sim.Time(i + 1),
				Events: []fevent.Event{childEvent(i)}})
			time.Sleep(time.Millisecond)
		}
	}()

	const kills = 4
	for k := 0; k < kills; k++ {
		time.Sleep(120 * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()
		childUp = false

		// Acks are cumulative over the delivery order, so "batches acked"
		// identifies exactly which prefix the server promised durability
		// for before it was killed.
		acked := int(cl.Stats().BatchesAcked)
		store := recoverAudit(t, dir)
		for i := 0; i < acked; i++ {
			f := childFlow(i)
			if got := len(store.Query(collector.Filter{Flow: &f})); got != 1 {
				t.Fatalf("kill %d: acked batch %d of %d recovered %d times, want exactly once",
					k, i, acked, got)
			}
		}

		cmd = spawn(k + 1)
		childUp = true
	}

	// Once every batch is queued — the kills may outlast a slow producer,
	// and a Flush drains only what is queued — let the channel drain
	// against the final life, then stop it and audit the complete run.
	<-delivered
	deadline := time.Now().Add(60 * time.Second)
	for {
		if err := cl.Flush(); err == nil {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("flush never drained: %v (stats %+v)", err, cl.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	st := cl.Stats()
	cmd.Process.Kill()
	cmd.Wait()
	childUp = false

	store := recoverAudit(t, dir)
	want := make([]fevent.Event, 0, total)
	for i := 0; i < total; i++ {
		want = append(want, childEvent(i))
	}
	if diffs := oracle.EventMultisetDiff(want, store.Query(collector.Filter{}), 10); len(diffs) > 0 {
		t.Fatalf("recovered store diverges from delivered events (%d stored, want %d):\n%s",
			store.Len(), total, diffs)
	}
	if st.Reconnects == 0 {
		t.Error("no reconnects — the kills never interrupted the channel")
	}
	t.Logf("survived %d kills: %d batches, %d reconnects, %d retransmits, %d dups deduplicated",
		kills, total, st.Reconnects, st.Retransmits, store.DupBatches())
}
