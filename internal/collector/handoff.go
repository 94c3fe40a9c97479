package collector

import (
	"encoding/binary"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Handoff surface: the hooks the sharded fabric uses to move key ranges
// between stores. A rebalance writes the moving events' record image and
// the dedup seen-set at the source, imports both at the destination, and
// finally removes exactly the image's multiset from the source (the
// epoch fence). The image is batches of the 24 B records the store holds
// (§3.4), one a run of switch and stamp: no event is decoded on the way
// out, across the wire, into the log or back in.

// BatchID names one sequenced batch in the (switch, seq) dedup set.
type BatchID struct {
	Switch uint16
	Seq    uint64
}

// ExportWhere returns copies of every stored event satisfying pred, in
// ingestion order, for in-process readers such as a digest of the store.
func (s *Store) ExportWhere(pred func(*fevent.Event) bool) []fevent.Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []fevent.Event
	var e fevent.Event
	s.visit(&Filter{}, func(b *block, r *run, i int, fid uint32) {
		b.load(&s.flows, fid, r, i, &e)
		if e.Hash = pkt.WireHash(&s.flows.keys[fid]); pred(&e) {
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

// AppendImage appends to dst the record image of every stored event f
// selects and keep (nil keeps all) accepts, in ingestion order: one batch
// a maximal run of consecutive events that share a switch and a stamp,
// split at fevent.MaxBatchRecords. keep sees the event's switch and its
// 24 B record. This is what a handoff captures and the query protocol's
// export verb serves.
func (s *Store) AppendImage(dst []byte, f *Filter, keep func(sw uint16, rec *[fevent.RecordLen]byte) bool) []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hdr, n := 0, 0 // the open batch's header offset in dst, and its records
	var rec [fevent.RecordLen]byte
	s.visit(f, func(b *block, r *run, i int, fid uint32) {
		if b.record(&s.flows, fid, i, &rec); keep != nil && !keep(r.sw, &rec) {
			return
		}
		if n == 0 || n == fevent.MaxBatchRecords ||
			binary.BigEndian.Uint16(dst[hdr:]) != r.sw || int64(binary.BigEndian.Uint64(dst[hdr+2:])) != r.ts {
			hdr, n = len(dst), 0
			dst = fevent.AppendBatchHeader(dst, r.sw, sim.Time(r.ts), 0)
		}
		n++
		binary.BigEndian.PutUint16(dst[hdr+fevent.BatchHeaderLen-2:], uint16(n))
		dst = append(dst, rec[:]...)
	})
	return dst
}

// ImportImage stores the events of a record image (AppendImage), outside
// any batch (no dedup entry) — the import half of a handoff, whose
// exactly-once accounting is the source's fence rather than a
// (switch, seq) key. The whole image is checked first: a bad one stores
// nothing. It returns how many events it stored.
func (s *Store) ImportImage(img []byte) (int, error) {
	n, err := fevent.CheckImage(img)
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(img) > 0 {
		sw, ts, recs, rest, _ := fevent.SplitBatch(img)
		s.appendRun(sw, int64(ts), recs)
		img = rest
	}
	return n, nil
}

// RemoveImage removes one stored copy per event of the record image img,
// matched by fevent.Identity, by re-appending the survivors to an emptied
// store from the old columns and dictionary, a stored run at a time: its
// records are rebuilt one by one, and the survivors go back in runs of up
// to a buffer's worth (appendRun joins them across a removal and a
// flush).
// Events with no stored match are ignored; it returns how many copies
// were actually removed. This is the epoch fence: after a handoff
// publishes, the source drops exactly what it captured and shipped.
func (s *Store) RemoveImage(img []byte) (int, error) {
	if _, err := fevent.CheckImage(img); err != nil || len(img) == 0 {
		return 0, err
	}
	want := make(map[fevent.Identity]int)
	for len(img) > 0 {
		sw, ts, recs, rest, _ := fevent.SplitBatch(img)
		for ; len(recs) > 0; recs = recs[fevent.RecordLen:] {
			want[fevent.IdentityOf(sw, ts, recs)]++
		}
		img = rest
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	old, dict, before := s.blocks, s.flows, s.n
	s.resetEvents()
	var buf [64 * fevent.RecordLen]byte
	var rec [fevent.RecordLen]byte
	for _, b := range old {
		for r := range b.runs {
			ru := &b.runs[r]
			recs := buf[:0] // survivors waiting to be re-appended
			for i, end := int(ru.start), b.runEnd(r); i < end; i++ {
				_, fid := b.links(i)
				b.record(&dict, fid, i, &rec)
				if k := fevent.IdentityOf(ru.sw, sim.Time(ru.ts), rec[:]); want[k] > 0 {
					want[k]--
					continue
				}
				if recs = append(recs, rec[:]...); len(recs) == len(buf) {
					s.appendRun(ru.sw, ru.ts, recs)
					recs = buf[:0]
				}
			}
			s.appendRun(ru.sw, ru.ts, recs)
		}
	}
	return before - s.n, nil
}
