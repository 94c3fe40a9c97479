package collector

import (
	"encoding/binary"

	"netseer/internal/fevent"
)

// Handoff surface: the hooks the sharded fabric uses to move key ranges
// between stores. A rebalance exports the moving events and the dedup
// seen-set from the source, imports both at the destination, and finally
// removes exactly the exported multiset from the source (the epoch
// fence). Events travel as fevent batch images; inside the store they
// come and go through the same append path and visitor as everything
// else.

// BatchID names one sequenced batch in the (switch, seq) dedup set.
type BatchID struct {
	Switch uint16
	Seq    uint64
}

// eventIdentity is the full-record multiset identity used by the epoch
// fence — switch (2 B), stamp (8 B) and the 24 B record: two events are
// the same iff every wire-visible field matches, timestamp included, so a
// fence removes exactly the copies it captured and never a later arrival
// that merely looks similar.
type eventIdentity [10 + fevent.RecordLen]byte

func identityOf(e *fevent.Event) eventIdentity {
	var k eventIdentity
	binary.BigEndian.PutUint16(k[0:2], e.SwitchID)
	binary.BigEndian.PutUint64(k[2:10], uint64(e.Timestamp))
	e.AppendRecord(k[10:10])
	return k
}

// ExportWhere returns copies of every stored event satisfying pred, in
// ingestion order. The fabric passes a slot-ownership predicate to
// capture a moving key range.
func (s *Store) ExportWhere(pred func(*fevent.Event) bool) []fevent.Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []fevent.Event
	var e fevent.Event
	s.visit(&Filter{}, func(b *block, r *run, i int, fid uint32) {
		if b.load(&s.flows, fid, r, i, &e); pred(&e) {
			out = append(out, e)
		}
	})
	return out
}

// ExportSeen returns the full (switch, seq) dedup set, in (switch, seq)
// order, so two exports of one store are equal. A handoff ships it
// alongside the events so batches that were stored-but-unacked at the
// source still dedup when the exporter re-routes them to the new owner.
func (s *Store) ExportSeen() []BatchID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]BatchID, 0, s.seen.n)
	s.seen.each(func(sw uint16, seq uint64) {
		out = append(out, BatchID{Switch: sw, Seq: seq})
	})
	return out
}

// MergeSeen adds ids, in any order, to the dedup set (idempotent).
func (s *Store) MergeSeen(ids []BatchID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seen.merge(ids)
}

// AddEvents stores events directly, outside any batch (no dedup entry) —
// the import half of a handoff, whose exactly-once accounting is the
// source's fence rather than a (switch, seq) key.
func (s *Store) AddEvents(evs []fevent.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.appendEvents(evs)
}

// RemoveEvents removes one stored copy per element of the multiset evs
// (full-record identity, timestamp included) by re-appending the
// survivors to an emptied store from the old columns and dictionary, a
// stored run at a time: its switch and stamp are keyed once, its records
// rebuilt one by one, and the survivors go back in runs of up to a
// buffer's worth (appendRun joins them across a removal and a flush).
// Events with no stored match are ignored; it returns how many copies
// were actually removed. This is the epoch fence: after a handoff
// publishes, the source drops exactly what it captured and shipped.
func (s *Store) RemoveEvents(evs []fevent.Event) int {
	if len(evs) == 0 {
		return 0
	}
	want := make(map[eventIdentity]int, len(evs))
	for i := range evs {
		want[identityOf(&evs[i])]++
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, dict, before := s.blocks, s.flows, s.n
	s.resetEvents()
	var buf [64 * fevent.RecordLen]byte
	for _, b := range old {
		for r := range b.runs {
			ru := &b.runs[r]
			var k eventIdentity
			binary.BigEndian.PutUint16(k[0:2], ru.sw)
			binary.BigEndian.PutUint64(k[2:10], uint64(ru.ts))
			recs := buf[:0] // survivors waiting to be re-appended
			for i, end := int(ru.start), b.runEnd(r); i < end; i++ {
				b.record(&dict, i, (*[fevent.RecordLen]byte)(k[10:]))
				if want[k] > 0 {
					want[k]--
					continue
				}
				if recs = append(recs, k[10:]...); len(recs) == len(buf) {
					s.appendRun(ru.sw, ru.ts, recs)
					recs = buf[:0]
				}
			}
			s.appendRun(ru.sw, ru.ts, recs)
		}
	}
	return before - s.n
}
