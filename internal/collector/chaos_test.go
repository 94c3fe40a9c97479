package collector

import (
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"netseer/internal/faultconn"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// fastClient returns a client tuned for chaos tests: tight reconnect
// backoff and a generous flush budget.
func fastClient(addr string) *Client {
	return NewClientConfig(addr, ClientConfig{
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		FlushTimeout: 30 * time.Second,
		CloseTimeout: 2 * time.Second,
	})
}

// deliverN ships n single-event batches with unique flows through cl.
func deliverN(cl *Client, start, n int) {
	for i := start; i < start+n; i++ {
		cl.Deliver(batchOf(1, sim.Time(i),
			fevent.Event{Type: fevent.TypeDrop, Flow: flowN(uint32(i)),
				DropCode: fevent.DropNoRoute, SwitchID: 1, Timestamp: sim.Time(i)}))
	}
}

// assertExactlyOnce checks that flows start..start+n-1 each have exactly
// one stored event and the store holds nothing else.
func assertExactlyOnce(t *testing.T, store *Store, n int) {
	t.Helper()
	if got := store.Len(); got != n {
		t.Fatalf("store has %d events, want exactly %d (dups=%d)", got, n, store.DupBatches())
	}
	for i := 0; i < n; i++ {
		f := flowN(uint32(i))
		if got := store.Query(Filter{Flow: &f}); len(got) != 1 {
			t.Fatalf("flow %d stored %d times, want exactly once", i, len(got))
		}
	}
}

// TestChaosFlakyLinkNoLoss runs the full client→server pipeline over a
// wire that injects deterministic resets, partial writes and latency:
// every batch must land in the Store exactly once.
func TestChaosFlakyLinkNoLoss(t *testing.T) {
	store := NewStore()
	ln, err := faultconn.Listen("127.0.0.1:0", faultconn.Config{
		Seed:       7,
		ResetAfter: 2048,
		MaxChunk:   7,
		Latency:    100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, store, ServerConfig{Listener: ln})
	defer srv.Close()

	cl := fastClient(srv.Addr())
	const n = 300
	deliverN(cl, 0, n)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush through flaky link: %v (stats: %+v)", err, cl.Stats())
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertExactlyOnce(t, store, n)
	st := cl.Stats()
	if st.Reconnects == 0 {
		t.Error("fault injection produced no reconnects — chaos did not bite")
	}
	if st.BatchesAcked != n {
		t.Errorf("acked %d batches, want %d", st.BatchesAcked, n)
	}
}

// TestChaosCorruptionNoLoss adds byte corruption in both directions: the
// frame and ack CRCs must turn corruption into retransmits, never into
// corrupt or lost events.
func TestChaosCorruptionNoLoss(t *testing.T) {
	store := NewStore()
	ln, err := faultconn.Listen("127.0.0.1:0", faultconn.Config{
		Seed:        13,
		ResetAfter:  4096, // escape framing desync after a corrupt length field
		CorruptProb: 0.05,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Short read deadline: a desynced connection (corrupt length field)
	// must die quickly so the client can retransmit.
	srv := startServer(t, store, ServerConfig{Listener: ln, ReadTimeout: 300 * time.Millisecond})
	defer srv.Close()

	cl := fastClient(srv.Addr())
	const n = 200
	deliverN(cl, 0, n)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush through corrupting link: %v (stats: %+v)", err, cl.Stats())
	}
	if err := cl.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	assertExactlyOnce(t, store, n)
	// Every stored event must be intact, not just present: corruption
	// that slipped the CRC would surface as a mangled drop code.
	for _, e := range store.Query(Filter{}) {
		if e.Type != fevent.TypeDrop || e.DropCode != fevent.DropNoRoute || e.SwitchID != 1 {
			t.Fatalf("corrupted event reached the store: %+v", e)
		}
	}
}

// TestChaosCollectorRestartRedelivery kills the collector mid-stream —
// including the window where batches are written but unacked — restarts
// it on the same address, and requires every batch to be redelivered
// exactly once. This is the regression test for the old silent-loss
// window between WriteFrame and Flush.
func TestChaosCollectorRestartRedelivery(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	cl := fastClient(addr)
	defer cl.Close()

	const total = 400
	// First half streams against the live server; kill it mid-stream so
	// some batches are in flight (written, unacked) when it dies.
	deliverN(cl, 0, total/2)
	srv.Close()
	// Second half arrives while the collector is down.
	deliverN(cl, total/2, total/2)

	// Restart on the same address, backed by the same store.
	var srv2 *Server
	for i := 0; ; i++ {
		srv2, err = NewServerConfig(store, addr, ServerConfig{})
		if err == nil {
			break
		}
		if i > 200 {
			t.Fatalf("could not rebind %s: %v", addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	defer srv2.Close()

	// Flush may race the client's reconnect backoff; retry until the
	// channel drains.
	deadline := time.Now().Add(20 * time.Second)
	for {
		if err = cl.Flush(); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush never drained after restart: %v (stats: %+v)", err, cl.Stats())
		}
		time.Sleep(20 * time.Millisecond)
	}
	assertExactlyOnce(t, store, total)
}

// flakyListener fails its first Accept calls with a transient error.
type flakyListener struct {
	net.Listener
	mu    sync.Mutex
	fails int
}

func (l *flakyListener) Accept() (net.Conn, error) {
	l.mu.Lock()
	if l.fails > 0 {
		l.fails--
		l.mu.Unlock()
		return nil, errors.New("transient accept failure")
	}
	l.mu.Unlock()
	return l.Listener.Accept()
}

// TestAcceptLoopSurvivesTransientErrors is the regression test for the
// accept-loop bug: transient Accept errors must be retried, not end
// ingestion forever.
func TestAcceptLoopSurvivesTransientErrors(t *testing.T) {
	store := NewStore()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, store, ServerConfig{Listener: &flakyListener{Listener: ln, fails: 5}})
	defer srv.Close()

	cl := fastClient(srv.Addr())
	defer cl.Close()
	deliverN(cl, 0, 10)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush after transient accept errors: %v", err)
	}
	assertExactlyOnce(t, store, 10)
	if got := srv.Stats().AcceptRetries; got < 5 {
		t.Errorf("AcceptRetries = %d, want ≥ 5", got)
	}
}

// TestServerCapsConnections verifies the concurrent-connection cap.
func TestServerCapsConnections(t *testing.T) {
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
	defer c1.Close()
	b := batchOf(1, 1, fevent.Event{Type: fevent.TypePause, Flow: flowN(1), SwitchID: 1, Timestamp: 1})
	b.Seq = 1
	if err := WriteFrame(c1, b); err != nil {
		t.Fatal(err)
	}
	if seq, err := readAck(c1); err != nil || seq != 1 {
		t.Fatalf("ack on first conn = %d, %v", seq, err)
	}
	// Second connection must be rejected (closed) while the first holds
	// the only slot.
	c2, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := readAck(c2); err == nil {
		t.Fatal("second connection was not rejected")
	}
	if got := srv.Stats().ConnsRejected; got != 1 {
		t.Errorf("ConnsRejected = %d, want 1", got)
	}
}

// TestDeliverNeverBlocksOnNetwork pins the hot-path contract: Deliver
// must enqueue and return without any network I/O, even when the
// collector is unreachable, and queue overflow must be accounted.
func TestDeliverNeverBlocksOnNetwork(t *testing.T) {
	cl := NewClientConfig("127.0.0.1:1", ClientConfig{ // nothing listens there
		MaxQueue:     10,
		BackoffMin:   time.Hour, // park the sender after the first failed dial
		BackoffMax:   time.Hour,
		FlushTimeout: 5 * time.Second,
		CloseTimeout: 200 * time.Millisecond,
	})
	start := time.Now()
	deliverN(cl, 0, 1000)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("1000 Delivers took %v — hot path is doing network I/O", elapsed)
	}
	if err := cl.Flush(); err == nil {
		t.Error("Flush succeeded with unreachable collector")
	}
	st := cl.Stats()
	if st.QueueDepth > 10 {
		t.Errorf("queue depth %d exceeds MaxQueue 10", st.QueueDepth)
	}
	if st.DroppedBatches < 990 {
		t.Errorf("DroppedBatches = %d, want ≥ 990 (overflow must be counted)", st.DroppedBatches)
	}
	if err := cl.Close(); err == nil {
		t.Error("Close reported success despite abandoning batches")
	}
}
