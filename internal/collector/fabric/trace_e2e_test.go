// End-to-end tracing tests: one sampled batch followed across the whole
// fabric — batcher-style origin, export enqueue, an endpoint failover
// with the frame in flight, a ring-change re-route, then the shard-side
// ingest → WAL-fsync → store-index chain — assembled back together with
// the same FanOutTrace the fetquery -trace flag uses. Plus the fleet
// health plane: /fleet's report must go unhealthy the moment a member
// dies, and must surface the traced batch's histogram exemplars.
package fabric_test

import (
	"encoding/binary"
	"io"
	"net"
	"path/filepath"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/sim"
)

// tracedBatch builds a sampled batch the way the batcher's emit path
// does: a fresh deterministic context, a batcher-flush span, and the
// context's parent pointing at that span so the next hop chains onto it.
// Callers must have forced sampling on (SetSampleEvery(1)).
func tracedBatch(t *testing.T, sw uint16, ord uint64, ts sim.Time, evs []fevent.Event) *fevent.Batch {
	t.Helper()
	tc := trace.NewContext(sw, ord)
	if !tc.Sampled() {
		t.Fatalf("context (switch %d, ordinal %d) not sampled with sampling forced on", sw, ord)
	}
	sp := trace.Begin(tc, trace.StageBatcher)
	sp.SwitchID = sw
	sp.Events = uint32(len(evs))
	tc.Parent = sp.SpanID
	trace.Finish(&sp)
	return &fevent.Batch{SwitchID: sw, Timestamp: ts, Events: evs, Trace: tc}
}

// readWireFrame consumes one length-prefixed frame from conn.
func readWireFrame(conn net.Conn) error {
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	var hdr [8]byte
	if _, err := io.ReadFull(conn, hdr[:]); err != nil {
		return err
	}
	_, err := io.ReadFull(conn, make([]byte, binary.BigEndian.Uint32(hdr[0:4])))
	return err
}

// TestTraceAssemblyAcrossFabric drives one sampled batch through every
// hop the exporter side can record — enqueue, an endpoint switch with
// the frame unacked, a ring-change re-route — into a real two-shard
// fabric, then asserts fetquery's cross-shard assembly sees the full
// chain in monotonic start order. The batch is first routed to a
// phantom shard whose endpoints the test controls: a backup that
// accepts one frame and dies (pinning the frame in the inflight
// window), then a primary that comes up (the endpoint switch), then a
// config that retires the phantom entirely (the re-route to the real
// shards).
func TestTraceAssemblyAcrossFabric(t *testing.T) {
	trace.SetSampleEvery(1)
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)

	base := t.TempDir()
	s1 := startShard(t, 1, filepath.Join(base, "s1"))
	defer s1.Close()
	s2 := startShard(t, 2, filepath.Join(base, "s2"))
	defer s2.Close()

	ep0 := pickAddr(t)
	l1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	phantom := fabric.ShardInfo{ID: 3, Ingest: []string{ep0, l1.Addr().String()},
		Query: pickAddr(t), Admin: pickAddr(t)}
	infosA := []fabric.ShardInfo{s1.Info(), s2.Info(), phantom}
	cfgA := fabric.Config{Epoch: 1, Shards: infosA, Slots: fabric.AssignSlots(infosA)}
	infosB := []fabric.ShardInfo{s1.Info(), s2.Info()}
	cfgB := fabric.Config{Epoch: 2, Shards: infosB, Slots: fabric.AssignSlots(infosB)}

	// Events whose slots the phantom owns, so the whole traced batch
	// queues on the endpoints the test scripts.
	var evs []fevent.Event
	for i := 0; len(evs) < 3 && i < 1<<17; i++ {
		e := eventN(700000+i, 9, 2000)
		if cfgA.Slots[fabric.SlotOf(9, e.Flow)] == 3 {
			evs = append(evs, e)
		}
	}
	if len(evs) < 3 {
		t.Fatal("no slots assigned to the phantom shard")
	}

	// First life of the backup endpoint: accept one connection, read one
	// full frame (the write that pins the batch in the inflight window),
	// then kill the connection and the listener.
	frameRead := make(chan struct{})
	go func() {
		conn, err := l1.Accept()
		if err != nil {
			return
		}
		if readWireFrame(conn) == nil {
			close(frameRead)
		}
		conn.Close()
		l1.Close()
	}()

	r := fabric.NewRouter(cfgA, collector.ClientConfig{
		DialTimeout: 250 * time.Millisecond,
		BackoffMin:  2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		FlushTimeout: 30 * time.Second, CloseTimeout: 2 * time.Second,
	})
	defer r.Close()

	b := tracedBatch(t, 9, 7, 2000, evs)
	id := b.Trace.TraceID
	r.Deliver(b)

	select {
	case <-frameRead:
	case <-time.After(10 * time.Second):
		t.Fatal("phantom shard never received the traced frame")
	}

	// Second life: the primary endpoint comes up, the client's redial
	// walk lands on it with the frame still unacked, and every traced
	// inflight batch gains an export-failover span.
	l0, err := net.Listen("tcp", ep0)
	if err != nil {
		t.Fatal(err)
	}
	defer l0.Close()
	go func() {
		conn, err := l0.Accept()
		if err == nil {
			io.Copy(io.Discard, conn)
		}
	}()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var seen bool
		for _, sp := range trace.Spans(id) {
			if sp.Stage == trace.StageExportFailover {
				seen = true
			}
		}
		if seen {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no export-failover span recorded for the inflight traced batch")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Retire the phantom: its unacked batch re-routes to the real owner
	// (recording the fabric-reroute hop) and finally lands durably.
	r.ApplyConfig(cfgB)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after re-route: %v", err)
	}

	res := fabric.FanOutTrace(cfgB, id, 5*time.Second)
	if res.Partial || res.ShardsOK != 2 {
		t.Fatalf("assembly partial=%v ok=%d/%d, want full 2/2", res.Partial, res.ShardsOK, res.ShardsTotal)
	}
	want := []trace.Stage{trace.StageBatcher, trace.StageExportEnqueue, trace.StageExportFailover,
		trace.StageReroute, trace.StageIngest, trace.StageWALFsync, trace.StageStoreIndex}
	got := make(map[string]int)
	for _, j := range res.Spans {
		if j.Trace != trace.FormatID(id) {
			t.Fatalf("span %s belongs to trace %s, queried %s", j.Span, j.Trace, trace.FormatID(id))
		}
		got[j.Stage]++
	}
	for _, st := range want {
		if got[st.String()] == 0 {
			t.Errorf("assembled trace misses the %s hop (got %v)", st, got)
		}
	}
	for i := 1; i < len(res.Spans); i++ {
		if res.Spans[i].Start < res.Spans[i-1].Start {
			t.Fatalf("span starts not monotonic: %s at %d after %s at %d",
				res.Spans[i].Stage, res.Spans[i].Start, res.Spans[i-1].Stage, res.Spans[i-1].Start)
		}
	}
	for _, j := range res.Spans {
		if j.End < j.Start {
			t.Errorf("span %s (%s) ends before it starts", j.Span, j.Stage)
		}
	}
	if len(res.Spans) == 0 || res.Spans[0].Stage != trace.StageBatcher.String() {
		t.Errorf("trace does not begin at the batcher flush: %+v", res.Spans)
	}
}

// TestFleetStatusHealthyAndDeadShard covers the /fleet report both
// ways: a settled fabric with live shards is Healthy and surfaces the
// traced batch's ingest-lag exemplar; killing one member flips Healthy
// off while keeping the dead shard's row as the signal.
func TestFleetStatusHealthyAndDeadShard(t *testing.T) {
	trace.SetSampleEvery(1)
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)

	base := t.TempDir()
	s1 := startShard(t, 1, filepath.Join(base, "s1"))
	defer s1.Close()
	s2 := startShard(t, 2, filepath.Join(base, "s2"))
	defer s2.Close()
	coord := startCoordinator(t, filepath.Join(base, "coord.json"),
		[]fabric.ShardInfo{s1.Info(), s2.Info()}, time.Second)
	defer coord.Close()

	r := fabric.NewRouter(coord.Config(), collector.ClientConfig{MaxQueue: 1024})
	defer r.Close()
	evs := make([]fevent.Event, 8)
	for i := range evs {
		evs[i] = eventN(800000+i, 4, 1500)
	}
	b := tracedBatch(t, 4, 11, 1500, evs)
	id := b.Trace.TraceID
	r.Deliver(b)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	rep := coord.FleetStatus(2 * time.Second)
	if !rep.Healthy {
		t.Fatalf("settled fabric reported unhealthy: %+v", rep)
	}
	for _, row := range rep.Shards {
		// Bootstrapped members have applied no config yet (epoch 0).
		if !row.Alive || (row.Epoch != 0 && row.Epoch != rep.Epoch) {
			t.Fatalf("shard %d alive=%v epoch=%d, want alive at epoch %d", row.ID, row.Alive, row.Epoch, rep.Epoch)
		}
		if row.Health == nil || row.Health.Admission != "ok" {
			t.Fatalf("shard %d health %+v, want admission ok", row.ID, row.Health)
		}
	}
	var found bool
	for _, ex := range rep.Exemplars {
		if ex.Trace == trace.FormatID(id) {
			found = true
		}
	}
	if !found {
		t.Errorf("traced batch %s missing from merged exemplars: %+v", trace.FormatID(id), rep.Exemplars)
	}

	s2.Close()
	rep = coord.FleetStatus(2 * time.Second)
	if rep.Healthy {
		t.Fatal("fleet reported healthy with a dead member")
	}
	var dead *fabric.FleetShard
	for i := range rep.Shards {
		if rep.Shards[i].ID == 2 {
			dead = &rep.Shards[i]
		}
	}
	if dead == nil {
		t.Fatal("dead shard lost its row — the gap is the signal")
	}
	if dead.Alive || dead.Err == "" {
		t.Errorf("dead shard row = %+v, want alive=false with an error", dead)
	}
}
