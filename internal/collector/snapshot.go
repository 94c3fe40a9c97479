package collector

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// Store snapshot encoding, the checkpoint companion of the write-ahead
// log: the store's own representation written out as it sits in memory,
// so loading one copies columns instead of re-inserting events. The WAL
// frames and checksums it as a single record, so a torn or corrupt
// snapshot is rejected whole at recovery (the previous snapshot + longer
// replay then reconstructs the state); the checks here only keep a
// well-checksummed but wrong image from indexing out of range.
//
// Layout (little-endian, so a column decodes with plain loads):
//
//	header: magic "NSS4", dupBatches (8 B), seenCount, flowCount,
//	        eventCount, runCount (4 B each)
//	per seen key, in (switch, seq) order: switch (2 B), seq (8 B)
//	per flow, in flow-id order: 13 B flow key, head (4 B, position+1 of its
//	        newest event)
//	per block of ≤ blockLen events: its run count (4 B); its run table,
//	        per run: start (2 B), switch (2 B), stamp (8 B); then column
//	        by column: chain links (4 B, position+1 of the flow's previous
//	        event, 0 = none), flow ids (4 B), types (1 B), record tails (10 B)
//
// Every section is written in an order the store fixes, and the flow
// index is not written at all — a load rebuilds it, re-inserting the
// flows in id order under a fresh seed — so an image that loads
// re-encodes to itself.
const (
	snapMagic       = "NSS4"
	snapHeaderLen   = len(snapMagic) + 8 + 4*4
	snapSeenLen     = 2 + 8
	snapFlowLen     = pkt.FlowKeyLen + 4
	snapBlockHdrLen = 4
	snapRunLen      = 2 + 2 + 8
)

// EncodeSnapshot serializes the store's full state. The caller hands the
// bytes to wal.InstallSnapshot; see Server.Checkpoint for the barrier
// that orders the capture against in-flight ingestion.
func (s *Store) EncodeSnapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	le := binary.LittleEndian
	runs := 0
	for _, b := range s.blocks {
		runs += len(b.runs)
	}
	d := &s.flows
	buf := make([]byte, 0, snapHeaderLen+s.seen.n*snapSeenLen+len(d.keys)*snapFlowLen+
		len(s.blocks)*snapBlockHdrLen+runs*snapRunLen+s.n*rowBytes)
	buf = append(buf, snapMagic...)
	buf = le.AppendUint64(buf, s.dupBatches)
	for _, v := range [...]int{s.seen.n, len(d.keys), s.n, runs} {
		buf = le.AppendUint32(buf, uint32(v))
	}
	s.seen.each(func(sw uint16, seq uint64) {
		buf = le.AppendUint64(le.AppendUint16(buf, sw), seq)
	})
	flows := len(buf)
	for i := range d.keys {
		buf = append(append(buf, d.keys[i][:]...), 0, 0, 0, 0)
	}
	for _, c := range d.index {
		if c.id != 0 {
			le.PutUint32(buf[flows+int(c.id)*snapFlowLen-4:], c.head)
		}
	}
	for _, b := range s.blocks {
		buf = le.AppendUint32(buf, uint32(len(b.runs)))
		for _, r := range b.runs {
			buf = le.AppendUint16(buf, r.start)
			buf = le.AppendUint16(buf, r.sw)
			buf = le.AppendUint64(buf, uint64(r.ts))
		}
		for _, v := range b.prev[:b.n] {
			buf = le.AppendUint32(buf, v)
		}
		for _, v := range b.fid[:b.n] {
			buf = le.AppendUint32(buf, v)
		}
		buf = append(buf, b.typ[:b.n]...)
		buf = append(buf, b.tail[:b.n*tailLen]...)
	}
	return buf
}

// LoadSnapshot replaces the store's state with a decoded snapshot; on
// error the store is untouched. It is the first half of recovery; WAL
// tail replay (whose batches dedup against the loaded seen-set) is the
// second. The flows go back into the dictionary in id order, by the
// table's own write path, so each gets the id it had; a key listed twice
// is an error.
func (s *Store) LoadSnapshot(data []byte) error {
	le := binary.LittleEndian
	if len(data) < snapHeaderLen || string(data[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("collector: snapshot magic missing or header truncated (%d bytes)", len(data))
	}
	seen, flows, events, runs := int(le.Uint32(data[12:])), int(le.Uint32(data[16:])), int(le.Uint32(data[20:])), int(le.Uint32(data[24:]))
	blocks := (events + blockLen - 1) / blockLen
	if want := snapHeaderLen + seen*snapSeenLen + flows*snapFlowLen + blocks*snapBlockHdrLen + runs*snapRunLen + events*rowBytes; len(data) != want {
		return fmt.Errorf("collector: snapshot is %d bytes, its header promises %d (%d seen keys, %d flows, %d events, %d runs)", len(data), want, seen, flows, events, runs)
	}
	ld := &Store{dupBatches: le.Uint64(data[4:])} // the image under construction; swapped in whole at the end
	data = data[snapHeaderLen:]
	keys := make([]BatchID, seen)
	for i := range keys {
		k := BatchID{Switch: le.Uint16(data[i*snapSeenLen:]), Seq: le.Uint64(data[i*snapSeenLen+2:])}
		if i > 0 && compareBatchIDs(keys[i-1], k) >= 0 {
			return fmt.Errorf("collector: snapshot dedup key %d (switch %d, seq %d) does not follow (switch %d, seq %d)", i, k.Switch, k.Seq, keys[i-1].Switch, keys[i-1].Seq)
		}
		keys[i] = k
	}
	ld.seen.merge(keys)
	data = data[seen*snapSeenLen:]
	if flows > 0 {
		ld.flows.grow(flowSlotsFor(flows))
	}
	var heads, ids [probeGroup]uint32
	for id := 0; id < flows; id += probeGroup {
		group := heads[:min(flows-id, probeGroup)]
		for i := range group {
			row := data[i*snapFlowLen:]
			if group[i] = le.Uint32(row[pkt.FlowKeyLen:]); group[i] == 0 || int(group[i]) > events {
				f, _ := pkt.FlowKeyFromWire(row) // length checked above
				return fmt.Errorf("collector: snapshot flow %d (%v) heads at event %d of %d", id+i, f, int64(group[i])-1, events)
			}
		}
		ld.flows.swapRun(data, snapFlowLen, group, ids[:len(group)])
		for i, old := range group {
			if old != 0 {
				return fmt.Errorf("collector: snapshot flow %d repeats flow %d's key", id+i, ids[i])
			}
		}
		data = data[len(group)*snapFlowLen:]
	}
	for ld.n < events {
		b := &block{n: min(blockLen, events-ld.n), minTs: math.MaxInt64, maxTs: math.MinInt64}
		// At most the runs the header has left: the length check above
		// then covers every byte this block reads.
		nr := int(le.Uint32(data))
		if nr < 1 || nr > b.n || nr > runs {
			return fmt.Errorf("collector: snapshot block %d of %d events holds %d runs, %d of the header's left", len(ld.blocks), b.n, nr, runs)
		}
		runs, data = runs-nr, data[snapBlockHdrLen:]
		b.runs = slices.Grow(b.runs, nr) // capacity as the allocator rounds it: what MemoryBytes charges
		for j := range nr {
			row := data[j*snapRunLen:]
			r := run{start: le.Uint16(row), sw: le.Uint16(row[2:]), ts: int64(le.Uint64(row[4:]))}
			if j == 0 && r.start != 0 || j > 0 && r.start <= b.runs[j-1].start || int(r.start) >= b.n {
				return fmt.Errorf("collector: snapshot block %d: run %d starts at event %d of %d", len(ld.blocks), j, r.start, b.n)
			}
			if j > 0 && r.sw == b.runs[j-1].sw && r.ts == b.runs[j-1].ts {
				return fmt.Errorf("collector: snapshot block %d: runs %d and %d split one run", len(ld.blocks), j-1, j)
			}
			b.runs = append(b.runs, r)
			b.minTs, b.maxTs = min(b.minTs, r.ts), max(b.maxTs, r.ts)
		}
		data = data[nr*snapRunLen:]
		for i := range b.prev[:b.n] {
			if b.prev[i] = le.Uint32(data[i*4:]); int(b.prev[i]) > ld.n+i {
				return fmt.Errorf("collector: snapshot event %d links forward to event %d", ld.n+i, b.prev[i]-1)
			}
		}
		data = data[b.n*4:]
		for i := range b.fid[:b.n] {
			if b.fid[i] = le.Uint32(data[i*4:]); int(b.fid[i]) >= flows {
				return fmt.Errorf("collector: snapshot event %d is of flow %d of %d", ld.n+i, b.fid[i], flows)
			}
		}
		data = data[b.n*4:]
		data = data[copy(b.typ[:b.n], data):]
		data = data[copy(b.tail[:b.n*tailLen], data):]
		for r := range b.runs {
			start, end := int(b.runs[r].start), b.runEnd(r)
			b.cover(r, start, end)
			row := ld.sumRow(b, b.runs[r].sw)
			for i, t := range b.typ[start:end] {
				if !fevent.Type(t).Valid() {
					return fmt.Errorf("collector: snapshot event %d: invalid type %d", ld.n+start+i, t)
				}
				row.n[t-1]++
			}
		}
		ld.blocks = append(ld.blocks, b)
		ld.n += b.n
		ld.runCap += cap(b.runs)
	}
	if runs != 0 {
		return fmt.Errorf("collector: snapshot blocks hold %d runs fewer than its header's count", runs)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks, s.n, s.sumRows, s.runCap, s.flows = ld.blocks, ld.n, ld.sumRows, ld.runCap, ld.flows
	s.seen, s.dupBatches = ld.seen, ld.dupBatches
	return nil
}
