package collector

import (
	"errors"
	"net"
	"os"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// TestAdmissionLadder walks the watermark state machine through every
// transition, including the hysteresis bands that prevent flapping at a
// threshold.
func TestAdmissionLadder(t *testing.T) {
	a := newAdmission(1000, true)
	// slowAt=700 shedAt=900, release points slowExit=630 shedExit=810.
	steps := []struct {
		bytes int64
		want  admitState
	}{
		{0, admitOK},
		{699, admitOK},   // just under the slow watermark
		{700, admitSlow}, // enter slow
		{650, admitSlow}, // inside the hysteresis band: hold
		{631, admitSlow},
		{629, admitOK},   // below slowExit: release
		{905, admitShed}, // jump straight from ok to shed
		{850, admitShed}, // hold above shedExit
		{811, admitShed},
		{809, admitSlow}, // below shedExit but above slowExit: step down one rung
		{629, admitOK},
		{950, admitShed},
		{100, admitOK}, // collapse from shed straight to ok below both exits
	}
	for i, s := range steps {
		if got := a.update(s.bytes); got != s.want {
			t.Fatalf("step %d: update(%d) = %v, want %v", i, s.bytes, got, s.want)
		}
		if got := a.current(); got != s.want {
			t.Fatalf("step %d: current() = %v after update(%d), want %v", i, got, s.bytes, s.want)
		}
	}
	if got := a.transitions.Load(); got != 7 {
		t.Errorf("transitions = %d, want 7", got)
	}
}

// TestAdmissionClampsWithoutWAL pins the safety rule: an in-memory server
// must never shed (that would drop acked events), so the ladder tops out
// at slow no matter how far past the shed watermark the store grows.
func TestAdmissionClampsWithoutWAL(t *testing.T) {
	a := newAdmission(1000, false)
	if got := a.update(5000); got != admitSlow {
		t.Fatalf("update(5000) without WAL = %v, want %v", got, admitSlow)
	}
}

// TestAdmissionDisabledAndDefaults covers the off switch (budget 0) and
// the watermarks a budget sets.
func TestAdmissionDisabledAndDefaults(t *testing.T) {
	var a *admission // budget <= 0 yields nil
	if na := newAdmission(0, true); na != nil {
		t.Fatal("budget 0 must disable admission control")
	}
	if got := a.update(1 << 40); got != admitOK {
		t.Fatalf("disabled update = %v, want ok", got)
	}
	if got := a.current(); got != admitOK {
		t.Fatalf("disabled current = %v, want ok", got)
	}

	d := newAdmission(1000, true)
	if d.slowAt != 700 || d.shedAt != 900 {
		t.Fatalf("watermarks = %d/%d, want 700/900", d.slowAt, d.shedAt)
	}
}

// TestServerSlowWatermarkDelaysAcks drives an in-memory server past the
// slow watermark and verifies the backpressure rung engages: the ladder
// reports slow and acks start being delayed.
func TestServerSlowWatermarkDelaysAcks(t *testing.T) {
	store := NewStore()
	// The first event costs a whole block; after that a single-event
	// batch over a fresh flow adds one dedup entry and, at a doubling, flow
	// table slots. The budget puts slowAt 13 batches in, so 60 batches
	// start under it and sail far past it — and the ladder must clamp at
	// slow (no WAL).
	budget := memAfter(13) * 10 / 7
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{
		MemoryBudget: budget,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := fastClient(srv.Addr())
	const n = 60
	deliverN(cl, 0, n)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertExactlyOnce(t, store, n)
	if got := srv.AdmitState(); got != "slow" {
		t.Errorf("AdmitState = %q, want slow (store at %d bytes of %d budget)",
			got, store.MemoryBytes(), budget)
	}
	if got := srv.admit.ackDelays.Load(); got == 0 {
		t.Error("no acks were delayed above the slow watermark")
	}
	if got := srv.ShedBatches(); got != 0 {
		t.Errorf("in-memory server shed %d batches — must clamp at slow", got)
	}
}

// TestShedEventsRecoverableAfterRestart is the shed rung's contract end
// to end: past the shed watermark the server stops indexing but keeps
// logging and acking, a checkpoint must not truncate the shed batches
// away (their segments are pinned), and the next restart's replay makes
// every acked event queryable again — exactly once.
func TestShedEventsRecoverableAfterRestart(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	store, _, err := RecoverStore(w)
	if err != nil {
		t.Fatal(err)
	}
	// shedAt lands 66 single-event batches past the first block, where
	// the 16 KiB budget put it when an event was charged a flat 160 B.
	budget := memAfter(66) * 10 / 9
	srv := startServer(t, store, ServerConfig{
		WAL:          w,
		MemoryBudget: budget,
	})
	defer srv.Close()

	cl := fastClient(srv.Addr())
	const n = 150 // more than twice the batches the shed watermark admits
	deliverN(cl, 0, n)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v (stats %+v)", err, cl.Stats())
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	shed := srv.ShedBatches()
	if shed == 0 {
		t.Fatalf("no batches were shed at %d bytes of a %d budget", store.MemoryBytes(), budget)
	}
	if got := srv.AdmitState(); got != "shed" {
		t.Errorf("AdmitState = %q, want shed", got)
	}
	live := store.Len()
	if live >= n {
		t.Fatalf("live store indexed all %d events — shedding indexed anyway", n)
	}
	if live < 60 || live > 72 {
		t.Errorf("shedding began after %d batches, want about the 66 the budget was cut for", live)
	}
	if uint64(n-live) != shed {
		t.Errorf("live %d + shed %d ≠ delivered %d", live, shed, n)
	}

	// A checkpoint while shed must keep the unindexed batches replayable:
	// the snapshot cannot contain them, so their segments are pinned
	// against truncation.
	if err := srv.Checkpoint(); err != nil {
		t.Fatalf("checkpoint while shed: %v", err)
	}
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	store2, _, err := RecoverStore(w2)
	if err != nil {
		t.Fatal(err)
	}
	assertExactlyOnce(t, store2, n)
}

// memAfter is what MemoryBytes reports with n single-event batches of one
// switch over fresh flows stored (0 < n ≤ blockLen), each at its own
// stamp: an empty store, a block list of one, one open block with its
// links at the width a first block opens at, its one summary row and its n runs at
// the capacity append grows a slice to, the flow dictionary as grown for
// n flows, and the dedup set's one switch and one container, whose n low
// halves sit at the capacity append grows a slice to.
func memAfter(n int) int64 {
	var runs []run
	var lows []uint16
	for range n {
		runs, lows = append(runs, run{}), append(lows, 0)
	}
	return NewStore().MemoryBytes() + 8 + blockMemCost + pageBytes(len(openBlock(0, 0).packed)) + sumRowMemCost + int64(cap(runs))*runMemCost + flowTableBytes(flowSlotsFor(n)) +
		seenSwitchCost + seenContainerCost + int64(cap(lows))*seenLowCost
}

// TestMemAfterIsWhatTheStoreReports pins the admission tests' budget
// arithmetic to MemoryBytes itself.
func TestMemAfterIsWhatTheStoreReports(t *testing.T) {
	store := NewStore()
	for n := 1; n <= 70; n++ {
		ev := fevent.Event{Type: fevent.TypeDrop, Flow: flowN(uint32(n)), SwitchID: 1, Timestamp: sim.Time(n), Hash: flowN(uint32(n)).Hash()}
		store.Deliver(&fevent.Batch{SwitchID: 1, Timestamp: sim.Time(n), Seq: uint64(n), Events: []fevent.Event{ev}})
		if got := store.MemoryBytes(); got != memAfter(n) {
			t.Fatalf("after %d batches MemoryBytes = %d, memAfter = %d", n, got, memAfter(n))
		}
	}
}

// startServer starts an ingest server on a loopback port, or on
// cfg.Listener when set.
func startServer(t *testing.T, store *Store, cfg ServerConfig) *Server {
	t.Helper()
	srv, err := NewServerConfig(store, "127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// TestServerReadDeadlineDropsSilentConn verifies a connection that sends
// nothing is dropped once the read deadline passes, freeing its slot.
func TestServerReadDeadlineDropsSilentConn(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{
		ReadTimeout: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server sent data on a silent connection")
	} else if errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatal("server never dropped the silent connection within 5s")
	}
	if got := srv.Stats().FrameErrors; got != 1 {
		t.Errorf("FrameErrors = %d, want 1 (the timed-out read)", got)
	}
}

// TestServerConnCapReleasesSlot verifies the connection cap is a live
// count, not a lifetime one: closing a connection frees its slot for the
// next client.
func TestServerConnCapReleasesSlot(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{MaxConns: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	c1, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	b := batchOf(1, 1, fevent.Event{Type: fevent.TypePause, Flow: flowN(1), SwitchID: 1, Timestamp: 1})
	b.Seq = 1
	if err := WriteFrame(c1, b); err != nil {
		t.Fatal(err)
	}
	if seq, err := readAck(c1); err != nil || seq != 1 {
		t.Fatalf("ack on first conn = %d, %v", seq, err)
	}
	c1.Close()

	// The slot frees asynchronously once the serve goroutine unwinds;
	// retry until a second connection is served to completion.
	b2 := batchOf(2, 2, fevent.Event{Type: fevent.TypePause, Flow: flowN(2), SwitchID: 2, Timestamp: 2})
	b2.Seq = 1
	deadline := time.Now().Add(5 * time.Second)
	for {
		c2, err := net.Dial("tcp", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c2.SetDeadline(time.Now().Add(time.Second))
		err = WriteFrame(c2, b2)
		var seq uint64
		if err == nil {
			seq, err = readAck(c2)
		}
		c2.Close()
		if err == nil && seq == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slot never released after first conn closed: %v (stats %+v)", err, srv.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != 2 {
		t.Fatalf("store has %d events, want 2", store.Len())
	}
}

// TestFailoverNoDoubleDeliver is the multi-endpoint contract: when the
// primary dies, the client fails over to the backup carrying only its
// unacked window — batches the primary already acked must never be
// re-sent — and once the primary returns, the probe promotes the channel
// home. Every delivered batch must appear exactly once across the union
// of both stores.
func TestFailoverNoDoubleDeliver(t *testing.T) {
	primaryStore, backupStore := NewStore(), NewStore()
	primary, err := NewServerConfig(primaryStore, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	primAddr := primary.Addr()
	backup, err := NewServerConfig(backupStore, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer backup.Close()

	cl := NewClientConfig(primAddr, ClientConfig{
		Endpoints:            []string{backup.Addr()},
		BackoffMin:           2 * time.Millisecond,
		BackoffMax:           20 * time.Millisecond,
		FlushTimeout:         30 * time.Second,
		CloseTimeout:         5 * time.Second,
		PrimaryRetryInterval: 25 * time.Millisecond,
	})
	defer cl.Close()
	flushRetry := func(phase string) {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		for {
			err := cl.Flush()
			if err == nil {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: flush never drained: %v (stats %+v)", phase, err, cl.Stats())
			}
			time.Sleep(10 * time.Millisecond)
		}
	}

	// Phase 1: the primary acks 50 batches.
	deliverN(cl, 0, 50)
	flushRetry("primary")
	assertExactlyOnce(t, primaryStore, 50)

	// Phase 2: kill the primary mid-channel; the next batches must land
	// on the backup — without the 50 acked ones riding along.
	primary.Close()
	deliverN(cl, 50, 50)
	flushRetry("failover")
	if got := backupStore.Len(); got != 50 {
		t.Fatalf("backup store has %d events, want exactly the 50 post-failover ones", got)
	}
	for i := 0; i < 50; i++ {
		f := flowN(uint32(i))
		if got := backupStore.Query(Filter{Flow: &f}); len(got) != 0 {
			t.Fatalf("acked batch %d was re-delivered to the backup after failover", i)
		}
	}
	if st := cl.Stats(); st.Failovers == 0 {
		t.Fatalf("no failover counted (stats %+v)", st)
	}

	// Phase 3: restart the primary; the probe must promote the channel
	// home. Keep a trickle flowing so the sender has work to carry over.
	var primary2 *Server
	for i := 0; ; i++ {
		primary2, err = NewServerConfig(primaryStore, primAddr, ServerConfig{})
		if err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", primAddr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer primary2.Close()
	next := 100
	deadline := time.Now().Add(15 * time.Second)
	for cl.Stats().Promotions == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("no promotion after primary restart (stats %+v)", cl.Stats())
		}
		deliverN(cl, next, 1)
		next++
		time.Sleep(10 * time.Millisecond)
	}
	deliverN(cl, next, 10)
	next += 10
	flushRetry("promotion")
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Exactly once across the union: no loss, no double delivery, on
	// either side of either transition.
	for i := 0; i < next; i++ {
		f := flowN(uint32(i))
		got := len(primaryStore.Query(Filter{Flow: &f})) + len(backupStore.Query(Filter{Flow: &f}))
		if got != 1 {
			t.Fatalf("batch %d delivered %d times across primary+backup, want exactly once", i, got)
		}
	}
	if total := primaryStore.Len() + backupStore.Len(); total != next {
		t.Fatalf("stores hold %d events, want %d", total, next)
	}
}
