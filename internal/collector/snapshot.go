package collector

import (
	"encoding/binary"
	"fmt"
	"math"

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
//	header: magic "NSS2", dupBatches (8 B), seenCount, flowCount,
//	        eventCount (4 B each)
//	per seen key: switch (2 B), seq (8 B)
//	per flow: 13 B flow key, head (4 B, position+1 of its newest event)
//	per block of ≤ blockLen events, column by column: timestamps (8 B),
//	        chain links (4 B, position+1 of the flow's previous event,
//	        0 = none), switches (2 B), types (1 B), records (24 B)
const (
	snapMagic     = "NSS2"
	snapHeaderLen = len(snapMagic) + 8 + 3*4
	snapSeenLen   = 2 + 8
	snapFlowLen   = pkt.FlowKeyLen + 4
)

// EncodeSnapshot serializes the store's full state. The caller hands the
// bytes to wal.InstallSnapshot; see Server.Checkpoint for the barrier
// that orders the capture against in-flight ingestion.
func (s *Store) EncodeSnapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	le := binary.LittleEndian
	buf := make([]byte, 0, snapHeaderLen+len(s.seen)*snapSeenLen+s.flows.n*snapFlowLen+s.n*rowBytes)
	buf = append(buf, snapMagic...)
	buf = le.AppendUint64(buf, s.dupBatches)
	buf = le.AppendUint32(buf, uint32(len(s.seen)))
	buf = le.AppendUint32(buf, uint32(s.flows.n))
	buf = le.AppendUint32(buf, uint32(s.n))
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
		for _, v := range b.ts[:b.n] {
			buf = le.AppendUint64(buf, uint64(v))
		}
		for _, v := range b.prev[:b.n] {
			buf = le.AppendUint32(buf, v)
		}
		for _, v := range b.sw[:b.n] {
			buf = le.AppendUint16(buf, v)
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
	seen, flows, events := int(le.Uint32(data[12:])), int(le.Uint32(data[16:])), int(le.Uint32(data[20:]))
	if want := snapHeaderLen + seen*snapSeenLen + flows*snapFlowLen + events*rowBytes; len(data) != want {
		return fmt.Errorf("collector: snapshot is %d bytes, its header promises %d (%d seen keys, %d flows, %d events)", len(data), want, seen, flows, events)
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
		for i := range b.ts[:b.n] {
			b.ts[i] = int64(le.Uint64(data[i*8:]))
			b.minTs, b.maxTs = min(b.minTs, b.ts[i]), max(b.maxTs, b.ts[i])
		}
		data = data[b.n*8:]
		for i := range b.prev[:b.n] {
			if b.prev[i] = le.Uint32(data[i*4:]); int(b.prev[i]) > ld.n+i {
				return fmt.Errorf("collector: snapshot event %d links forward to event %d", ld.n+i, b.prev[i]-1)
			}
		}
		data = data[b.n*4:]
		for i := range b.sw[:b.n] {
			b.sw[i] = le.Uint16(data[i*2:])
		}
		data = data[b.n*2:]
		data = data[copy(b.typ[:b.n], data):]
		data = data[copy(b.rec[:b.n*fevent.RecordLen], data):]
		var row *sumRow // of b.sw[i-1]: a batch's events sit together
		for i, t := range b.typ[:b.n] {
			if !fevent.Type(t).Valid() || b.rec[i*fevent.RecordLen] != t {
				return fmt.Errorf("collector: snapshot event %d: invalid type %d (its record says %d)", ld.n+i, t, b.rec[i*fevent.RecordLen])
			}
			if row == nil || b.sw[i] != b.sw[i-1] {
				row = ld.sumRow(b, b.sw[i])
			}
			row.n[t-1]++
		}
		ld.blocks = append(ld.blocks, b)
		ld.n += b.n
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks, s.n, s.sumRows, s.flows = ld.blocks, ld.n, ld.sumRows, ld.flows
	s.seen, s.dupBatches = ld.seen, ld.dupBatches
	return nil
}
