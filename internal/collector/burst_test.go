package collector

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"slices"
	"sync"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/faultconn"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// gatedFS is the OS filesystem with every segment fsync held until gate
// is closed: what a test needs to observe that an ack waits for the disk.
type gatedFS struct {
	faultfs.FS
	gate chan struct{}
}

func (g gatedFS) Create(path string) (faultfs.File, error) {
	f, err := g.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return gatedFile{f, g.gate}, nil
}

type gatedFile struct {
	faultfs.File
	gate chan struct{}
}

func (f gatedFile) Sync() error {
	<-f.gate
	return f.File.Sync()
}

// burstServer starts a durable server whose fsyncs wait until release is
// called (the cleanup calls it too, so a failed test still shuts down).
func burstServer(t *testing.T) (store *Store, srv *Server, w *wal.WAL, release func()) {
	t.Helper()
	gate := make(chan struct{})
	release = sync.OnceFunc(func() { close(gate) })
	w, err := wal.Open(t.TempDir(), wal.Options{FS: gatedFS{faultfs.OS, gate}})
	if err != nil {
		t.Fatal(err)
	}
	store = NewStore()
	srv, err = NewServerConfig(store, "127.0.0.1:0", ServerConfig{WAL: w})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		release()
		srv.Close()
		w.Close()
	})
	return store, srv, w, release
}

// seqBatch is a single-event batch of switch sw already carrying its
// delivery sequence, as a PreserveSeq client is handed them.
func seqBatch(sw uint16, seq uint64) *fevent.Batch {
	b := batchOf(sw, sim.Time(seq), fevent.Event{Type: fevent.TypePause, Flow: flowN(uint32(seq)), SwitchID: sw, Timestamp: sim.Time(seq)})
	b.Seq = seq
	return b
}

// writeBurst sends one single-event frame per sequence, all in one Write.
func writeBurst(t *testing.T, conn net.Conn, sw uint16, seqs []uint64) {
	t.Helper()
	var wire []byte
	for _, seq := range seqs {
		var err error
		if wire, err = AppendFrame(wire, seqBatch(sw, seq)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// readAcksThrough reads acks until one covers want and returns them all.
func readAcksThrough(t *testing.T, conn net.Conn, want uint64) []uint64 {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var acks []uint64
	for {
		seq, err := readAck(conn)
		if err != nil {
			t.Fatalf("after acks %v: %v", acks, err)
		}
		if acks = append(acks, seq); seq >= want {
			return acks
		}
	}
}

// TestBurstAck pins the wire contract of burst-at-a-time ingest: frames
// that arrive in one write share one cumulative ack carrying the highest
// sequence among them, whatever their order, and that ack is gated on
// the durability of every frame it stands for — replays included.
func TestBurstAck(t *testing.T) {
	monotonic := make([]uint64, 40)
	for i := range monotonic {
		monotonic[i] = uint64(1000 + i)
	}
	for _, tc := range []struct {
		name string
		seqs []uint64
	}{
		{"monotonic", monotonic},
		{"reroute order", []uint64{900, 100, 950}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, srv, _, release := burstServer(t)
			release()
			highest := uint64(0)
			for _, seq := range tc.seqs {
				highest = max(highest, seq)
			}
			conn, err := newRawConn(srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			writeBurst(t, conn, 1, tc.seqs)
			acks := readAcksThrough(t, conn, highest)
			if len(acks) >= len(tc.seqs) || acks[len(acks)-1] != highest {
				t.Fatalf("%d frames in one write drew acks %v: want fewer acks than frames, the last one %d", len(tc.seqs), acks, highest)
			}
			waitFor(t, func() bool { return srv.Stats().Acks == uint64(len(acks)) }) // counted once written
			if got := srv.Stats().Frames; got != uint64(len(tc.seqs)) {
				t.Fatalf("server counted %d frames, want %d", got, len(tc.seqs))
			}

			if !slices.IsSorted(tc.seqs) {
				return // a PreserveSeq client refuses the order (TestPreserveSeqRefusesAStepDown)
			}
			// The same order through a real client (another switch, so
			// nothing is a replay): its window must drain.
			cl := NewClientConfig(srv.Addr(), ClientConfig{PreserveSeq: true, FlushTimeout: 5 * time.Second})
			defer cl.Close()
			for _, seq := range tc.seqs {
				cl.Deliver(seqBatch(2, seq))
			}
			if err := cl.Flush(); err != nil {
				t.Fatalf("client window did not drain: %v (stats %+v)", err, cl.Stats())
			}
			if got, want := store.Len(), 2*len(tc.seqs); got != want || store.DupBatches() != 0 {
				t.Fatalf("store holds %d events with %d duplicates, want %d and 0", got, store.DupBatches(), want)
			}
		})
	}

	// A burst made only of replays appends nothing, yet its ack must wait
	// until the first copies — still unsynced — are durable.
	t.Run("replayed frames", func(t *testing.T) {
		store, srv, w, release := burstServer(t)
		first, err := newRawConn(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer first.Close()
		writeBurst(t, first, 1, []uint64{7, 8})
		waitFor(t, func() bool { return store.Len() == 2 })

		replay, err := newRawConn(srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer replay.Close()
		writeBurst(t, replay, 1, []uint64{7, 8})
		waitFor(t, func() bool { return store.DupBatches() == 2 })
		replay.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		if seq, err := readAck(replay); !errors.Is(err, os.ErrDeadlineExceeded) {
			t.Fatalf("replayed burst drew ack %d (%v) while its first copies were not durable", seq, err)
		}
		if st := w.Stats(); st.PendingDurable != 2 {
			t.Fatalf("WAL has %d records pending, want the 2 first copies", st.PendingDurable)
		}

		release()
		for _, conn := range []net.Conn{first, replay} {
			if acks := readAcksThrough(t, conn, 8); len(acks) != 1 || acks[0] != 8 {
				t.Fatalf("acks %v, want one ack of 8", acks)
			}
		}
		// A client retransmitting the same window sees it drain too.
		cl := NewClientConfig(srv.Addr(), ClientConfig{PreserveSeq: true, FlushTimeout: 5 * time.Second})
		defer cl.Close()
		for _, seq := range []uint64{7, 8} {
			cl.Deliver(seqBatch(1, seq))
		}
		if err := cl.Flush(); err != nil {
			t.Fatalf("client window did not drain: %v (stats %+v)", err, cl.Stats())
		}
		if store.Len() != 2 || store.DupBatches() != 4 {
			t.Fatalf("store holds %d events with %d duplicates, want 2 and 4", store.Len(), store.DupBatches())
		}
	})
}

// TestPreserveSeqRefusesAStepDown: a cumulative ack releases every
// batch at or below it, so a PreserveSeq client handed a sequence not
// above one it has taken could have an ack of the higher release the
// lower unread. Deliver refuses such a batch, and the client carries on.
func TestPreserveSeqRefusesAStepDown(t *testing.T) {
	store, srv, _, release := burstServer(t)
	release()
	cl := NewClientConfig(srv.Addr(), ClientConfig{PreserveSeq: true, FlushTimeout: 5 * time.Second})
	defer cl.Close()
	cl.Deliver(seqBatch(2, 900))
	for _, seq := range []uint64{100, 900} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Deliver took seq %d after 900", seq)
				}
			}()
			cl.Deliver(seqBatch(2, seq))
		}()
	}
	cl.Deliver(seqBatch(2, 950))
	if err := cl.Flush(); err != nil {
		t.Fatalf("client window did not drain: %v (stats %+v)", err, cl.Stats())
	}
	if store.Len() != 2 || store.DupBatches() != 0 {
		t.Fatalf("store holds %d events with %d duplicates, want 2 and 0", store.Len(), store.DupBatches())
	}
}

// TestBurstLivenessUnderMidFrameResets pins the barrier rule: every
// connection dies mid-frame after a few whole frames, so the exporter
// advances only because the server writes the acks it owes before it
// reads on an empty buffer — never leaving them behind a doomed read.
// Read budgets are drawn uniformly from [2.5, 5] frames of bytes, so a
// connection reaches the barrier and gets its acks out only when its
// budget ends on one of the 3 frame boundaries in that range: one in
// about frame/1.2 connections, each acking the 2–4 frames it read whole —
// about frame/2.4 reconnects a batch (69 B frames: 20.7–28.9 over seeds
// 1–8 and repeated runs). Acks handed over just before the doomed read
// lose the race with it, so without the barrier the same seeds take
// 192–266 a batch. The bound, frame/1.8 a batch (38), sits 1.3× over the
// worst run and 5× under the fewest the barrier-less runs took.
func TestBurstLivenessUnderMidFrameResets(t *testing.T) {
	const n = 200
	frame := frameLen(batchOf(1, 0, fevent.Event{}))
	for _, seed := range []int64{1, 4, 7} {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			store := NewStore()
			ln, err := faultconn.Listen("127.0.0.1:0", faultconn.Config{Seed: seed, ResetAfter: 5 * frame})
			if err != nil {
				t.Fatal(err)
			}
			srv := startServer(t, store, ServerConfig{Listener: ln})
			defer srv.Close()
			cl := fastClient(srv.Addr())
			defer cl.Close()
			deliverN(cl, 0, n)
			if err := cl.Flush(); err != nil {
				t.Fatalf("flush: %v (client %+v, server %+v)", err, cl.Stats(), srv.Stats())
			}
			assertExactlyOnce(t, store, n)
			re := cl.Stats().Reconnects
			if store.DupBatches() == 0 || re == 0 {
				t.Fatalf("the resets did not bite: %d duplicate batches, %d reconnects", store.DupBatches(), re)
			}
			if re > uint64(n*frame*5/9) {
				t.Fatalf("%d batches of %d B frames took %d reconnects: owed acks are being left behind doomed reads", n, frame, re)
			}
		})
	}
}

// TestIngestPathDoesNotAllocate pins the per-frame cost of both ends of
// the channel at zero heap allocations: the client's encode into a sized
// buffer, and the server's read of a frame into its connection's reused
// payload buffer followed by the store's DeliverPayload of the view.
func TestIngestPathDoesNotAllocate(t *testing.T) {
	p := newPair(t, 1)
	b := &fevent.Batch{SwitchID: 3, Timestamp: sim.Millisecond, Events: p.events(fevent.DefaultBatchSize, 20, 1, sim.Millisecond, 0)}
	wire := make([]byte, 0, frameLen(b))
	if n := testing.AllocsPerRun(100, func() { wire, _ = AppendFrame(wire[:0], b) }); n != 0 {
		t.Fatalf("AppendFrame into a sized buffer allocates %v times", n)
	}

	var (
		rd      bytes.Reader
		got     Payload
		payload []byte
		err     error
	)
	frame := func() {
		rd.Reset(wire)
		if got, payload, err = readFramePayload(&rd, payload); err != nil {
			t.Fatal(err)
		}
		p.st.DeliverPayload(&got)
	}
	frame() // sizes the payload buffer; first sight of the flows
	if n := testing.AllocsPerRun(100, frame); n != 0 {
		t.Fatalf("reading and delivering a frame of %d events allocates %v times", got.Events(), n)
	}
	if p.st.Len() >= blockLen {
		t.Fatalf("the run filled the block (%d events): it did not measure the non-full case", p.st.Len())
	}
}

// TestRecoverReplayDoesNotAllocate: replaying a log allocates for what the
// store grows by — a block, the flow table's doublings, the dedup map —
// and for the WAL's record reader, not per record. The reader costs a
// fixed handful a Replay (itself, its 256 KiB read-ahead, one payload
// buffer regrown only for a record larger than any before it) plus the
// open of each segment; the payload goes into the columns as bytes.
func TestRecoverReplayDoesNotAllocate(t *testing.T) {
	const records = 300
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p := newPair(t, 2)
	for seq := uint64(1); seq <= records; seq++ {
		ts := sim.Time(seq) * sim.Millisecond
		b := &fevent.Batch{SwitchID: 3, Timestamp: ts, Seq: seq, Events: p.events(fevent.DefaultBatchSize, 40, 1, ts, 0)}
		if _, err := w.Append(wirePayload(t, b), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var st *Store
	n := testing.AllocsPerRun(5, func() {
		if st, _, err = RecoverStore(w); err != nil {
			t.Fatal(err)
		}
	})
	if st.Len() != records*fevent.DefaultBatchSize || len(st.blocks) != 1 {
		t.Fatalf("recovered %d events in %d blocks, want %d in 1", st.Len(), len(st.blocks), records*fevent.DefaultBatchSize)
	}
	if n >= records/4 {
		t.Fatalf("recovering %d records allocates %v times: that grows with the log, not with the store", records, n)
	}
	t.Logf("RecoverStore of %d records: %v allocations", records, n)
}
