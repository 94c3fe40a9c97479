package collector

import (
	"fmt"

	"netseer/internal/collector/wal"
)

// RecoverStore rebuilds a Store from an opened write-ahead log: load the
// newest snapshot, then replay the tail segments through the same
// ViewPayload + DeliverPayload path the live wire uses — the logged bytes
// go into the store's columns as they are, no event is materialised. Replayed batches dedup against
// the snapshot's (switch, seq) set — and against each other — so
// recovery is idempotent no matter how the crash interleaved snapshot
// installation and appends. Batches that were shed before the crash
// carry no seen-entry and re-index here, exactly as the admission ladder
// promised. A fabric record (RecordSeq) in the log is refused.
func RecoverStore(w *wal.WAL) (*Store, wal.ReplayStats, error) {
	return RecoverStoreWith(w, nil)
}

// RecoverStoreWith is RecoverStore for a log that also holds records
// other than frames — a fabric shard's: every logged payload that is not
// a frame goes to fn, in log order between the frames around it, with the
// store being rebuilt, and fn's error ends the replay.
func RecoverStoreWith(w *wal.WAL, fn func(s *Store, payload []byte) error) (*Store, wal.ReplayStats, error) {
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
		case fn != nil:
			return fn(store, payload)
		}
		return fmt.Errorf("collector: replaying WAL record: %w", err)
	})
	if err != nil {
		return nil, st, err
	}
	return store, st, nil
}
