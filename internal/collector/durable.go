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
// promised.
func RecoverStore(w *wal.WAL) (*Store, wal.ReplayStats, error) {
	store := NewStore()
	if snap := w.Snapshot(); snap != nil {
		if err := store.LoadSnapshot(snap); err != nil {
			return nil, wal.ReplayStats{}, fmt.Errorf("collector: recovering snapshot: %w", err)
		}
	}
	st, err := w.Replay(func(payload []byte) error {
		p, err := ViewPayload(payload)
		if err != nil {
			return fmt.Errorf("collector: replaying WAL record: %w", err)
		}
		store.DeliverPayload(&p)
		return nil
	})
	if err != nil {
		return nil, st, err
	}
	return store, st, nil
}
