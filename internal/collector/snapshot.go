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
//	header: magic "NSS3", dupBatches (8 B), seenCount, flowCount,
//	        eventCount, runCount (4 B each)
//	per seen key: switch (2 B), seq (8 B)
//	per flow: 13 B flow key, head (4 B, position+1 of its newest event)
//	per block of ≤ blockLen events: its run count (4 B); its run table,
//	        per run: start (2 B), switch (2 B), stamp (8 B); then column
//	        by column: chain links (4 B, position+1 of the flow's previous
//	        event, 0 = none), types (1 B), records (24 B)
const (
	snapMagic       = "NSS3"
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
	buf := make([]byte, 0, snapHeaderLen+len(s.seen)*snapSeenLen+s.flows.n*snapFlowLen+
		len(s.blocks)*snapBlockHdrLen+runs*snapRunLen+s.n*rowBytes)
	buf = append(buf, snapMagic...)
	buf = le.AppendUint64(buf, s.dupBatches)
	buf = le.AppendUint32(buf, uint32(len(s.seen)))
	buf = le.AppendUint32(buf, uint32(s.flows.n))
	buf = le.AppendUint32(buf, uint32(s.n))
	buf = le.AppendUint32(buf, uint32(runs))
	for k := range s.seen {
		buf = le.AppendUint16(buf, k.sw)
		buf = le.AppendUint64(buf, k.seq)
	}
	for i := range s.flows.slots {
		if sl := &s.flows.slots[i]; sl.head != 0 {
			buf = le.AppendUint32(append(buf, sl.key[:]...), sl.head)
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
		buf = append(buf, b.typ[:b.n]...)
		buf = append(buf, b.rec[:b.n*fevent.RecordLen]...)
	}
	return buf
}

// LoadSnapshot replaces the store's state with a decoded snapshot; on
// error the store is untouched. It is the first half of recovery; WAL
// tail replay (whose batches dedup against the loaded seen-set) is the
// second.
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
	ld := &Store{ // the image under construction; swapped in whole at the end
		dupBatches: le.Uint64(data[4:]),
		seen:       make(map[batchKey]struct{}, seen),
	}
	data = data[snapHeaderLen:]
	for ; seen > 0; seen, data = seen-1, data[snapSeenLen:] {
		ld.seen[batchKey{sw: le.Uint16(data), seq: le.Uint64(data[2:])}] = struct{}{}
	}
	if flows > 0 {
		ld.flows.grow(flowSlotsFor(flows))
	}
	var heads [probeGroup]uint32
	for flows > 0 {
		group := heads[:min(flows, probeGroup)]
		for i := range group {
			row := data[i*snapFlowLen:]
			if group[i] = le.Uint32(row[pkt.FlowKeyLen:]); group[i] == 0 || int(group[i]) > events {
				f, _ := pkt.FlowKeyFromWire(row) // length checked above
				return fmt.Errorf("collector: snapshot flow %v heads at event %d of %d", f, int64(group[i])-1, events)
			}
		}
		ld.flows.swapRun(data, snapFlowLen, group)
		flows, data = flows-len(group), data[len(group)*snapFlowLen:]
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
		data = data[copy(b.typ[:b.n], data):]
		data = data[copy(b.rec[:b.n*fevent.RecordLen], data):]
		for r := range b.runs {
			start, end := int(b.runs[r].start), b.runEnd(r)
			b.cover(r, start, end)
			row := ld.sumRow(b, b.runs[r].sw)
			for i, t := range b.typ[start:end] {
				if !fevent.Type(t).Valid() || b.rec[(start+i)*fevent.RecordLen] != t {
					return fmt.Errorf("collector: snapshot event %d: invalid type %d (its record says %d)", ld.n+start+i, t, b.rec[(start+i)*fevent.RecordLen])
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
