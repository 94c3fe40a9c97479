package collector

import (
	"hash/fnv"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// writeCheckpointedLog writes the log a restart recovers: about events
// events from 10 switches over flows flows in batches whose sizes cycle
// as an exporter's do, every batch appended as its wire payload, with a
// checkpoint (CutSegment, then InstallSnapshot of the live store) half
// way. It returns the live store.
func writeCheckpointedLog(t testing.TB, dir string, events, flows int) *Store {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sizes := [...]int{50, 50, 8, 50, 1, 50, 8, 50}
	evs := make([]fevent.Event, 50)
	r := rand.New(rand.NewSource(43))
	st, checkpointed := NewStore(), false
	for seq := uint64(1); st.Len() < events; seq++ {
		sw, ts := uint16(1+r.Intn(10)), sim.Time(seq)*10*sim.Microsecond
		for i := range evs[:sizes[seq%8]] {
			evs[i] = fevent.Event{Type: fevent.Types[r.Intn(4)], Flow: modelFlow(r.Intn(flows)), SwitchID: sw, Timestamp: ts, Count: 1}
		}
		b := &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: evs[:sizes[seq%8]]}
		if _, err := w.Append(wirePayload(t, b), false); err != nil {
			t.Fatal(err)
		}
		st.Deliver(b)
		if !checkpointed && st.Len() >= events/2 {
			cut, err := w.CutSegment()
			if err == nil {
				err = w.InstallSnapshot(cut, st.EncodeSnapshot())
			}
			if err != nil {
				t.Fatal(err)
			}
			checkpointed = true
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// imageSum hashes the store's snapshot image.
func imageSum(st *Store) uint64 {
	h := fnv.New64a()
	h.Write(st.EncodeSnapshot())
	return h.Sum64()
}

// TestRecoveredWALPinsNoSnapshot recovers a store from a log with a
// snapshot and keeps the log open, as netseerd does, and requires the
// heap to have grown by no more than the store it holds: the log keeps
// no copy of the snapshot it was recovered from.
func TestRecoveredWALPinsNoSnapshot(t *testing.T) {
	dir := t.TempDir()
	want := imageSum(writeCheckpointedLog(t, dir, 400_000, 60_000))
	live := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	st, _, err := RecoverStore(w)
	if err != nil {
		t.Fatal(err)
	}
	heap, est := live()-before, st.MemoryBytes()
	t.Logf("%d events: MemoryBytes %d, heap growth %d (%.3f×)", st.Len(), est, heap, float64(heap)/float64(est))
	if heap > est*11/10 {
		t.Errorf("with the log open, the heap grew %d B for a store of %d B: over 1.1×", heap, est)
	}
	if got := imageSum(st); got != want {
		t.Errorf("the recovered store's snapshot hashes to %x, the live store's to %x", got, want)
	}
	runtime.KeepAlive(w)
	runtime.KeepAlive(st)
}

// TestStartNodeInMemory: a node without a data dir has no log — nothing
// to checkpoint or scrub, an empty replay report — and ingests and
// answers queries all the same, its spans labelled with its shard.
func TestStartNodeInMemory(t *testing.T) {
	n, err := StartNode("", "127.0.0.1:0", "127.0.0.1:0", ServerConfig{}, wal.Options{}, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.WAL() != nil || n.Checkpoint() == nil || n.Replay().Records != 0 || n.Store().traceShard != 7 {
		t.Fatalf("an in-memory node: log %v, checkpoint error %v, replay %+v, shard %d",
			n.WAL(), n.Checkpoint(), n.Replay(), n.Store().traceShard)
	}
	cl := NewClientConfig(n.Addr(), ClientConfig{})
	defer cl.Close()
	cl.Deliver(batchOf(3, 10, fevent.Event{Type: fevent.TypeDrop, Flow: flowN(1)}, fevent.Event{Type: fevent.TypePause, Flow: flowN(2)}))
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	var lines []string
	if err := QueryLines(n.QueryAddr(), "count", time.Second, func(line string) error {
		lines = append(lines, line)
		return nil
	}); err != nil || len(lines) != 1 || lines[0] != "2" {
		t.Fatalf("count over the query port: %q, %v", lines, err)
	}
}
