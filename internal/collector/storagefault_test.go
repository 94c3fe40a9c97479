// Disk-fault chaos matrix for the durable collector: the full
// client→server→WAL pipeline runs on a fault-injected filesystem
// (internal/faultfs) and every scenario is audited for the no-false-acks
// contract — an acked batch survives recovery exactly once, no matter
// how the disk died. The scenarios: ENOSPC mid-ingest, fsync EIO
// followed by a power cut, a torn write under segment rotation, a bare
// power cut mid-stream, and bit rot caught by the scrubber. The file
// lives in the external package beside the kill-recover harness so it
// can use the oracle's multiset comparison.
package collector_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/oracle"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func sfFlow(i int) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: pkt.IP(10, 30, byte(i>>8), byte(i)), DstIP: pkt.IP(10, 30, 255, 1),
		SrcPort: uint16(4000 + i%60000), DstPort: 443, Proto: pkt.ProtoTCP}
}

func sfEvent(i int) fevent.Event {
	return fevent.Event{Type: fevent.TypeDrop, Flow: sfFlow(i), Hash: sfFlow(i).Hash(),
		DropCode: fevent.DropNoRoute, SwitchID: 11, Timestamp: sim.Time(i + 1)}
}

// sfServer starts a durable collector whose WAL lives on the faulty
// filesystem, ingesting on a loopback port.
func sfServer(t *testing.T, dir string, fs faultfs.FS, segBytes int64) *collector.Node {
	t.Helper()
	node, err := collector.StartNode(dir, "127.0.0.1:0", "127.0.0.1:0", collector.ServerConfig{},
		wal.Options{FS: fs, SegmentBytes: segBytes}, 0)
	if err != nil {
		t.Fatalf("start: %v", err)
	}
	return node
}

// sfClient tunes the exporter channel for fault tests: tight backoff, a
// short drain so tests against a dead server finish quickly, and a small
// in-flight window so the server's group commit runs many small flush
// rounds instead of swallowing the whole run in one write — the fault
// engine's write/sync counters then land mid-stream, after real acks.
func sfClient(addr string) *collector.Client {
	return collector.NewClientConfig(addr, collector.ClientConfig{
		MaxQueue:     1 << 16,
		MaxInflight:  4,
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		FlushTimeout: 2 * time.Second,
		CloseTimeout: 500 * time.Millisecond,
	})
}

// sfDeliver ships n single-event batches (unique flows) in order; acks
// are cumulative over this order, so Stats().BatchesAcked identifies the
// exact prefix the server promised durability for.
func sfDeliver(cl *collector.Client, n int) {
	for i := 0; i < n; i++ {
		cl.Deliver(&fevent.Batch{SwitchID: 11, Timestamp: sim.Time(i + 1),
			Events: []fevent.Event{sfEvent(i)}})
	}
}

// waitDurabilityFailed polls until the server reaches the terminal
// durability-failed rung, then returns its health error.
func waitDurabilityFailed(t *testing.T, srv *collector.Node) error {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.AdmitState() != "durability-failed" {
		if time.Now().After(deadline) {
			t.Fatalf("server never reached durability-failed (admit=%q)", srv.AdmitState())
		}
		time.Sleep(2 * time.Millisecond)
	}
	err := srv.Healthz()
	if err == nil {
		t.Fatal("durability-failed but Healthz() is nil")
	}
	return err
}

// sfAudit recovers the directory on the real filesystem and checks the
// no-false-acks contract: every acked batch present exactly once, and no
// flow stored more than once.
func sfAudit(t *testing.T, dir string, acked int) *collector.Store {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("audit open: %v", err)
	}
	defer w.Close()
	store, _, err := collector.RecoverStore(w)
	if err != nil {
		t.Fatalf("audit recover: %v", err)
	}
	for i := 0; i < acked; i++ {
		f := sfFlow(i)
		if got := len(store.Query(collector.Filter{Flow: &f})); got != 1 {
			t.Fatalf("acked batch %d of %d recovered %d times, want exactly once", i, acked, got)
		}
	}
	counts := make(map[pkt.FlowKey]int)
	for _, e := range store.Query(collector.Filter{}) {
		counts[e.Flow]++
		if counts[e.Flow] > 1 {
			t.Fatalf("flow %v stored %d times", e.Flow, counts[e.Flow])
		}
	}
	return store
}

// TestStorageFaultENOSPCMidIngest fills the disk mid-stream: the write
// budget runs out, the log poisons itself, the server flips to
// durability-failed, and recovery holds exactly the acked prefix.
func TestStorageFaultENOSPCMidIngest(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 1, WriteBudget: 8 << 10})
	srv := sfServer(t, dir, fault, 0)
	defer srv.Close()

	cl := sfClient(srv.Addr())
	const total = 400
	go sfDeliver(cl, total)

	herr := waitDurabilityFailed(t, srv)
	if !errors.Is(herr, syscall.ENOSPC) {
		t.Fatalf("health error = %v, want ENOSPC", herr)
	}
	cl.Close()
	acked := int(cl.Stats().BatchesAcked)
	if acked == 0 {
		t.Fatal("no batch was ever acked before the disk filled")
	}
	if acked == total {
		t.Fatalf("all %d batches acked — the write budget never bit", total)
	}
	srv.Close()
	sfAudit(t, dir, acked)
	t.Logf("ENOSPC after %d acked batches; all survived recovery", acked)
}

// TestStorageFaultFsyncEIOThenPowerCut is the fsyncgate scenario: an
// fsync fails (the kernel drops the dirty pages — DropOnSyncFail), the
// log fail-stops, and the machine then loses power. Every batch acked
// before the bad fsync must survive; nothing buffered after it may have
// been acked.
func TestStorageFaultFsyncEIOThenPowerCut(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{
		Seed: 2, FailSyncAt: 6, DropOnSyncFail: true,
	})
	srv := sfServer(t, dir, fault, 0)
	defer srv.Close()

	cl := sfClient(srv.Addr())
	const total = 300
	go sfDeliver(cl, total)

	herr := waitDurabilityFailed(t, srv)
	if !errors.Is(herr, syscall.EIO) {
		t.Fatalf("health error = %v, want EIO", herr)
	}
	cl.Close()
	acked := int(cl.Stats().BatchesAcked)
	if acked == 0 {
		t.Fatal("no batch acked before the fsync failure")
	}

	// Power cut: everything not covered by a successful fsync vanishes.
	fault.PowerCut()
	srv.Close()
	sfAudit(t, dir, acked)
	t.Logf("fsync EIO + power cut after %d acked batches; all survived", acked)
}

// TestStorageFaultTornWriteUnderRotation breaks a write mid-record while
// tiny segments force constant rotation: the torn flush poisons the log
// and the acked prefix recovers cleanly past the torn tail.
func TestStorageFaultTornWriteUnderRotation(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 3, TornWriteAt: 30})
	srv := sfServer(t, dir, fault, 2<<10)
	defer srv.Close()

	cl := sfClient(srv.Addr())
	const total = 300
	go sfDeliver(cl, total)

	herr := waitDurabilityFailed(t, srv)
	if !errors.Is(herr, syscall.EIO) {
		t.Fatalf("health error = %v, want EIO from the torn write", herr)
	}
	cl.Close()
	acked := int(cl.Stats().BatchesAcked)
	srv.Close()
	store := sfAudit(t, dir, acked)
	t.Logf("torn write: %d acked, %d recovered", acked, store.Len())
}

// TestStorageFaultPowerCutMidIngest cuts power with no warning while
// acks are streaming: un-fsynced bytes vanish, pending directory
// operations roll back, and recovery holds every acked batch.
func TestStorageFaultPowerCutMidIngest(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 4})
	srv := sfServer(t, dir, fault, 4<<10)
	defer srv.Close()

	cl := sfClient(srv.Addr())
	// Deliver continuously — the plug is pulled mid-stream, and the
	// deliveries that keep arriving afterwards are what trip the server
	// over the dead filesystem.
	stop := make(chan struct{})
	go func() {
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			cl.Deliver(&fevent.Batch{SwitchID: 11, Timestamp: sim.Time(i + 1),
				Events: []fevent.Event{sfEvent(i)}})
			time.Sleep(100 * time.Microsecond)
		}
	}()
	defer close(stop)

	// Let a healthy prefix land, then pull the plug.
	deadline := time.Now().Add(10 * time.Second)
	for int(cl.Stats().BatchesAcked) < 50 {
		if time.Now().After(deadline) {
			t.Fatalf("only %d batches acked before the deadline", cl.Stats().BatchesAcked)
		}
		time.Sleep(time.Millisecond)
	}
	fault.PowerCut()

	herr := waitDurabilityFailed(t, srv)
	if !errors.Is(herr, faultfs.ErrPowerCut) {
		t.Fatalf("health error = %v, want ErrPowerCut", herr)
	}
	cl.Close()
	acked := int(cl.Stats().BatchesAcked)
	srv.Close() // its log must not resurrect post-cut bytes: the halted FS refuses
	sfAudit(t, dir, acked)
	t.Logf("power cut after %d acked batches; all survived", acked)
}

// TestStorageFaultBitRotThenScrub rots a byte in a sealed mid-log
// segment after a clean shutdown. The scrubber must quarantine exactly
// that segment, and recovery must hold exactly the delivered events
// minus that segment's — reported as an explicit gap, never silently.
func TestStorageFaultBitRotThenScrub(t *testing.T) {
	dir := t.TempDir()
	srv := sfServer(t, dir, faultfs.OS, 2<<10)
	cl := sfClient(srv.Addr())
	const total = 150
	sfDeliver(cl, total)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	cl.Close()
	srv.Close()

	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil || len(segs) < 3 {
		t.Fatalf("want >=3 segments for a mid-log rot, got %v (err %v)", segs, err)
	}
	sort.Strings(segs)
	victim := segs[len(segs)/2]

	// Parse the victim before rotting it: quarantine is file-granular, so
	// exactly its records are the expected loss.
	lost := make(map[pkt.FlowKey]bool)
	nLost := 0
	func() {
		f, err := os.Open(victim)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		for {
			payload, err := wal.ReadRecord(f, wal.MaxRecord, nil)
			if errors.Is(err, io.EOF) {
				return
			}
			if err != nil {
				t.Fatalf("pre-rot parse of %s: %v", victim, err)
			}
			var b fevent.Batch
			if err := collector.DecodePayload(payload, &b); err != nil {
				t.Fatalf("decode: %v", err)
			}
			for _, e := range b.Events {
				lost[e.Flow] = true
				nLost++
			}
		}
	}()
	if nLost == 0 {
		t.Fatalf("victim segment %s holds no records", victim)
	}
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipByte(victim, st.Size()/2); err != nil {
		t.Fatalf("flip: %v", err)
	}

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer w2.Close()
	rep, err := w2.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || !strings.HasPrefix(rep.Quarantined[0], filepath.Base(victim)+":") {
		t.Fatalf("scrub quarantined %v, want exactly the rotted %s", rep.Quarantined, filepath.Base(victim))
	}
	store, rst, err := collector.RecoverStore(w2)
	if err != nil {
		t.Fatalf("post-scrub recover: %v", err)
	}
	if len(rst.Gaps) != 1 {
		t.Fatalf("replay gaps = %v, want exactly one for the quarantined segment", rst.Gaps)
	}
	want := make([]fevent.Event, 0, total-nLost)
	for i := 0; i < total; i++ {
		if e := sfEvent(i); !lost[e.Flow] {
			want = append(want, e)
		}
	}
	if diffs := oracle.EventMultisetDiff(want, store.Query(collector.Filter{}), 10); len(diffs) > 0 {
		t.Fatalf("recovered store diverges from delivered-minus-rotted (%d stored, want %d):\n%s",
			store.Len(), len(want), diffs)
	}
	t.Logf("bit rot: quarantined %s (%d events lost with an explicit gap), %d recovered",
		filepath.Base(victim), nLost, store.Len())
}
