package collector

import (
	"fmt"

	"netseer/internal/collector/wal"
	"netseer/internal/obs"
)

// RecoverStore rebuilds a Store from an opened write-ahead log: load the
// newest snapshot, then replay the tail segments through the same
// ViewPayload + DeliverPayload path the live wire uses — the logged bytes
// go into the store's columns as they are, no event is materialised. Replayed batches dedup against
// the snapshot's (switch, seq) set — and against each other — so
// recovery is idempotent no matter how the crash interleaved snapshot
// installation and appends. Batches that were shed before the crash
// carry no seen-entry and re-index here, exactly as the admission ladder
// promised.
//
// A log may also hold records other than frames — a fabric shard's
// bookkeeping (RecordSeq). Given records, every logged payload that is
// not a frame goes to records[0], in log order between the frames around
// it, with the store being rebuilt, and its error ends the replay;
// without, such a record is refused.
func RecoverStore(w *wal.WAL, records ...func(s *Store, payload []byte) error) (*Store, wal.ReplayStats, error) {
	store := NewStore()
	if err := w.ReadSnapshot(store.readSnapshot); err != nil {
		return nil, wal.ReplayStats{}, fmt.Errorf("collector: recovering snapshot: %w", err)
	}
	st, err := w.Replay(func(payload []byte) error {
		p, err := ViewPayload(payload)
		switch {
		case err == nil:
			store.DeliverPayload(&p)
			return nil
		case len(records) > 0:
			return records[0](store, payload)
		}
		return fmt.Errorf("collector: replaying WAL record: %w", err)
	})
	if err != nil {
		return nil, st, err
	}
	return store, st, nil
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
