package collector

import (
	"errors"
	"fmt"
	"io"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs"
)

// RecoverStore rebuilds a Store from an opened write-ahead log: load the
// newest snapshot, then replay the tail segments through the same
// ViewPayload + DeliverPayload path the live wire uses — the logged bytes
// go into the store's columns as they are, no event is materialised.
// Replayed batches dedup against the snapshot's (switch, seq) set — and
// against each other — so recovery is idempotent no matter how the crash
// interleaved snapshot installation and appends. Batches that were shed
// before the crash carry no seen-entry and re-index here, exactly as the
// admission ladder promised.
//
// The tail is read ahead on a second goroutine (readAhead), which starts
// before the snapshot loads: it reads and checksums the records and
// splits and checks each frame. The caller's goroutine loads the
// snapshot's head, then applies the frames into the image under
// construction while the snapshot's blocks decode beside it
// (readSnapshot), then joins the two. The overlap ends early in three
// cases: a record that is not a frame joins first, so its handler sees
// the store the sequential replay would show it; a snapshot that fails to
// decode fails the recovery; and a newest snapshot whose checksum fails
// once read, which wal.ReadSnapshot passes over for an older one, voids
// the applied image and the read-ahead: the older snapshot starts afresh
// with a new one. The read-ahead holds at most readAheadSlabs ×
// readAheadSlab bytes of the tail, and it has ended by the time
// RecoverStore returns, on every path. The result is the sequential
// replay's: the same store, ReplayStats and error.
//
// A log may also hold records other than frames — a fabric shard's
// bookkeeping (RecordSeq). Given records, every logged payload that is
// not a frame goes to records[0], in log order between the frames around
// it, with the store being rebuilt, and its error ends the replay;
// without, such a record is refused.
func RecoverStore(w *wal.WAL, records ...func(s *Store, payload []byte) error) (*Store, wal.ReplayStats, error) {
	handler := len(records) > 0
	store, ra := NewStore(), startReadAhead(w, handler)
	// void: the read-ahead may have fed an image that was not swapped in.
	void, held := false, false
	restart := func() {
		ra.stop()
		store, ra, void, held = NewStore(), startReadAhead(w, handler), false, false
	}
	err := w.ReadSnapshot(func(r io.Reader, n int) error {
		if void { // a newer snapshot did not verify
			restart()
		}
		err := store.readSnapshot(r, n, func(img *Store) { held = ra.drain(img) })
		void = err != nil
		return err
	})
	if err != nil {
		ra.stop()
		return nil, wal.ReplayStats{}, fmt.Errorf("collector: recovering snapshot: %w", err)
	}
	if void { // no snapshot verified: the tail goes onto an empty store
		restart()
	}
	for held || ra.drain(store) {
		held = false
		ra.verdict <- records[0](store, ra.slabs[ra.held].held)
		ra.free <- ra.held
	}
	if ra.err != nil {
		return nil, ra.st, ra.err
	}
	return store, ra.st, nil
}

// The read-ahead's bound: at most readAheadSlabs slabs of readAheadSlab
// bytes (a whole record, the largest the log holds, fits one), each with
// views of at most readAheadFrames frames; a small tail gets fewer and
// smaller slabs.
const (
	readAheadSlabs  = 4
	readAheadSlab   = wal.MaxRecord
	readAheadFrames = 4096
)

// errStopped is the reader's answer to a caller that stopped it.
var errStopped = errors.New("collector: recovery stopped")

// readAhead is RecoverStore's reader: a goroutine that replays the log's
// tail, copies each record into the slab being filled and views it there
// with ViewPayload, and hands full slabs to the caller in log order. The
// slabs, their views and the channels are allocated once a recovery;
// the caller applies a slab and hands it back to be refilled.
//
// A record that is not a frame, given a handler, ends its slab, held: the
// reader waits for the caller's verdict on it (the handler's error) and
// returns that to Replay. So the handler sees the store as the records
// before it left it, and a failing handler stops the replay at its record
// with the ReplayStats of the sequential replay.
type readAhead struct {
	slabs   []slab
	fill    int        // the slab the reader fills, -1 for none
	held    int        // the slab drain stopped at, ending with a held record
	full    chan int   // filled slabs, in log order; closed once Replay returns
	free    chan int   // applied slabs; closed to stop the reader
	verdict chan error // the caller's verdict on a held record; closed to stop the reader
	st      wal.ReplayStats
	err     error
}

// slab is one unit of the read-ahead: copies of records in buf, the views
// of the frames among them, and whether it ends with a held record.
type slab struct {
	buf    []byte
	frames []Payload
	held   []byte // the held record, if hold
	hold   bool
}

// startReadAhead sizes the ring to w's tail and starts the reader.
func startReadAhead(w *wal.WAL, handler bool) *readAhead {
	tail := max(int(w.Stats().SizeBytes), 1)
	size := min(tail, readAheadSlab)
	n := min((tail+size-1)/size, readAheadSlabs)
	views := min(size/(payloadHdrLen+fevent.BatchHeaderLen)+1, readAheadFrames)
	ra := &readAhead{
		slabs:   make([]slab, n),
		fill:    -1,
		full:    make(chan int, n),
		free:    make(chan int, n),
		verdict: make(chan error),
	}
	bufs, frames := make([]byte, n*size), make([]Payload, n*views)
	for i := range ra.slabs {
		ra.slabs[i].buf = bufs[i*size : i*size : (i+1)*size]
		ra.slabs[i].frames = frames[i*views : i*views : (i+1)*views]
		ra.free <- i
	}
	go ra.read(w, handler)
	return ra
}

// read is the reader goroutine.
func (ra *readAhead) read(w *wal.WAL, handler bool) {
	defer close(ra.full)
	ra.st, ra.err = w.Replay(func(payload []byte) error {
		if ra.fill >= 0 {
			if s := &ra.slabs[ra.fill]; len(s.frames) == cap(s.frames) || len(payload) > cap(s.buf)-len(s.buf) {
				ra.publish()
			}
		}
		if ra.fill < 0 {
			i, ok := <-ra.free
			if !ok {
				return errStopped
			}
			s := &ra.slabs[i]
			s.buf, s.frames, s.held, s.hold = s.buf[:0], s.frames[:0], nil, false
			ra.fill = i
		}
		s := &ra.slabs[ra.fill]
		at := len(s.buf)
		s.buf = append(s.buf, payload...)
		p, err := ViewPayload(s.buf[at:])
		switch {
		case err == nil:
			s.frames = append(s.frames, p)
			return nil
		case !handler:
			return fmt.Errorf("collector: replaying WAL record: %w", err)
		}
		s.held, s.hold = s.buf[at:], true
		ra.publish()
		verdict, ok := <-ra.verdict
		if !ok {
			return errStopped
		}
		return verdict
	})
	if ra.err == nil && ra.fill >= 0 {
		ra.publish()
	}
}

// publish hands the slab being filled to the caller.
func (ra *readAhead) publish() {
	ra.full <- ra.fill
	ra.fill = -1
}

// drain applies the filled slabs' frames to st in log order until the
// tail ends, or until a slab that ends with a held record, which it keeps
// in held and reports: the caller hands the record to its handler, then
// the slab back.
func (ra *readAhead) drain(st *Store) bool {
	for i := range ra.full {
		s := &ra.slabs[i]
		for j := range s.frames {
			st.DeliverPayload(&s.frames[j])
		}
		if s.hold {
			ra.held = i
			return true
		}
		ra.free <- i
	}
	return false
}

// stop ends a recovery the caller gives up on: the reader stops at its
// next wait, and stop returns once it has gone.
func (ra *readAhead) stop() {
	close(ra.free)
	close(ra.verdict)
	for range ra.full {
	}
}

// Node is one collector as netseerd runs it: the write-ahead log in its
// data dir (none in memory), the store recovered from that log, and the
// ingest and query servers over the store. A fabric shard is a Node plus
// its admin surface. Checkpoint, ScrubWAL, Drain and Healthz are the
// ingest server's.
type Node struct {
	*Server
	qsrv   *QueryServer
	replay wal.ReplayStats
}

// StartNode opens the log in dir, recovers the store from it and starts
// the ingest server on ingestAddr (or cfg.Listener) and the query server
// on queryAddr. An empty dir runs in memory: a crash loses the store.
// records, if given, takes the log's non-frame records, as RecoverStore's
// does. The node owns its log, so cfg.WAL is replaced by it. shard labels
// the node's trace spans with its fabric shard ID (0 standalone). A
// failed start releases what it opened.
func StartNode(dir, ingestAddr, queryAddr string, cfg ServerConfig, opts wal.Options, shard uint32,
	records ...func(s *Store, payload []byte) error) (*Node, error) {
	n := &Node{}
	store := NewStore()
	cfg.WAL = nil
	if dir != "" {
		w, err := wal.Open(dir, opts)
		if err != nil {
			return nil, err
		}
		if store, n.replay, err = RecoverStore(w, records...); err != nil {
			w.Close()
			return nil, err
		}
		cfg.WAL = w
	}
	store.traceShard = shard
	var err error
	if n.Server, err = NewServerConfig(store, ingestAddr, cfg); err == nil {
		if n.qsrv, err = NewQueryServer(store, queryAddr); err != nil {
			n.Server.Close()
		}
	}
	if err != nil {
		if cfg.WAL != nil {
			cfg.WAL.Close()
		}
		return nil, err
	}
	return n, nil
}

// Store returns the node's store.
func (n *Node) Store() *Store { return n.store }

// WAL returns the node's log, nil in memory.
func (n *Node) WAL() *wal.WAL { return n.wal }

// QueryAddr returns the query listener's address.
func (n *Node) QueryAddr() string { return n.qsrv.Addr() }

// Replay reports what recovery read from the log: records, segments, a
// truncated tail, and every gap — a corrupt or quarantined segment whose
// acked events are lost.
func (n *Node) Replay() wal.ReplayStats { return n.replay }

// RegisterMetrics exposes the node's ingest, log, query and store
// instruments on r; labels go on the ingest and log series.
func (n *Node) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	n.Server.RegisterMetrics(r, labels...)
	n.qsrv.RegisterMetrics(r)
	n.store.RegisterMetrics(r)
}

// Close stops the query server, then ingest, then closes the log, so
// in-flight ingestion fails cleanly before the log goes.
func (n *Node) Close() error {
	n.qsrv.Close()
	err := n.Server.Close()
	if n.wal != nil {
		n.wal.Close()
	}
	return err
}
