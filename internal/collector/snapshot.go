package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// Store snapshot encoding, the checkpoint companion of the write-ahead
// log: the store's own representation written out column by column, its
// links expanded to full width and each record's hash written as its
// flow key's CRC, so loading one fills columns instead of re-inserting
// events. The WAL frames and checksums it as a single record, so a torn
// or corrupt snapshot is rejected whole at recovery (the previous
// snapshot + longer replay then reconstructs the state); the checks here
// only keep a well-checksummed but wrong image from indexing out of
// range.
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
// flows in id order under a fresh seed. Nor are a block's link widths: a
// load derives them as the live store did, from the positions and flows
// named before the block. A load ignores the records' hash bytes, as the
// store keeps no hash, so an image that loads re-encodes to itself but
// for those bytes, each then its flow key's CRC.
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
	// Each flow key's CRC, the hash of each of its events, is taken once:
	// a CRC an event would cost more than the rest of the event's encoding.
	flows, hashes := len(buf), make([]uint32, len(d.keys))
	for i := range d.keys {
		buf = append(append(buf, d.keys[i][:]...), 0, 0, 0, 0)
		hashes[i] = pkt.WireHash(&d.keys[i])
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
		n, at := b.n, len(buf) // the four columns, from each event's record
		buf = slices.Grow(buf, n*rowBytes)[:at+n*rowBytes]
		prevs, fids, typs, tails := buf[at:], buf[at+4*n:], buf[at+8*n:], buf[at+9*n:]
		for i := range n {
			prev, fid := b.links(i)
			le.PutUint32(prevs[4*i:], prev)
			le.PutUint32(fids[4*i:], fid)
			typs[i] = b.typ[i]
			tail := tails[i*fevent.RecordTailLen:][:fevent.RecordTailLen]
			*(*[tailLen]byte)(tail) = *b.tailAt(i)
			binary.BigEndian.PutUint32(tail[tailLen:], hashes[fid])
		}
	}
	return buf
}

// LoadSnapshot replaces the store's state with a decoded snapshot; on
// error the store is unchanged. It is readSnapshot over the bytes.
func (s *Store) LoadSnapshot(data []byte) error {
	return s.readSnapshot(bytes.NewReader(data), len(data))
}

// snapChunk is the scratch a load reads fixed-width rows through: the
// dedup keys, the flow rows and the run tables.
const snapChunk = 4 << 10

// snapReader reads an image's sections from r, the fixed-width rows
// through one scratch buffer; cols holds a block's columns, twice, so
// that one block's are read while the last block's are filled in.
type snapReader struct {
	r    io.Reader
	buf  [snapChunk]byte
	cols [2][blockLen * rowBytes]byte
}

// rows reads n rows of width bytes a scratch buffer at a time and hands
// each chunk to fn with the index of its first row.
func (d *snapReader) rows(n, width int, fn func(first int, rows []byte) error) error {
	per := len(d.buf) / width
	for first := 0; first < n; first += per {
		chunk := d.buf[:min(per, n-first)*width]
		if _, err := io.ReadFull(d.r, chunk); err != nil {
			return err
		}
		if err := fn(first, chunk); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshot replaces the store's state with the snapshot image of
// size bytes that r yields; on error the store is unchanged. It is the
// first half of recovery, fed by wal.ReadSnapshot as the file is read;
// WAL tail replay (whose batches dedup against the loaded seen-set) is
// the second. It decodes into an image under construction, checks every
// section, and swaps the image in only when r, asked for a byte past the
// image, answers io.EOF: the WAL's snapshot reader answers so only once
// the record's checksum has matched. The flows go back into the
// dictionary in id order, each with the id it had; their index is filled
// while the blocks decode, and a key listed twice is an error.
func (s *Store) readSnapshot(r io.Reader, size int) error {
	le := binary.LittleEndian
	d := &snapReader{r: r}
	hdr := d.buf[:snapHeaderLen]
	if size >= snapHeaderLen {
		if _, err := io.ReadFull(r, hdr); err != nil {
			return err
		}
	}
	if size < snapHeaderLen || string(hdr[:len(snapMagic)]) != snapMagic {
		return fmt.Errorf("collector: snapshot magic missing or header truncated (%d bytes)", size)
	}
	seen, flows, events, runs := int(le.Uint32(hdr[12:])), int(le.Uint32(hdr[16:])), int(le.Uint32(hdr[20:])), int(le.Uint32(hdr[24:]))
	blocks := (events + blockLen - 1) / blockLen
	if want := snapHeaderLen + seen*snapSeenLen + flows*snapFlowLen + blocks*snapBlockHdrLen + runs*snapRunLen + events*rowBytes; size != want {
		return fmt.Errorf("collector: snapshot is %d bytes, its header promises %d (%d seen keys, %d flows, %d events, %d runs)", size, want, seen, flows, events, runs)
	}
	ld := &Store{dupBatches: le.Uint64(hdr[4:])} // the image under construction; swapped in whole at the end
	keys := make([]BatchID, seen)
	err := d.rows(seen, snapSeenLen, func(first int, rows []byte) error {
		for i := range len(rows) / snapSeenLen {
			k, j := BatchID{Switch: le.Uint16(rows[i*snapSeenLen:]), Seq: le.Uint64(rows[i*snapSeenLen+2:])}, first+i
			if j > 0 && compareBatchIDs(keys[j-1], k) >= 0 {
				return fmt.Errorf("collector: snapshot dedup key %d (switch %d, seq %d) does not follow (switch %d, seq %d)", j, k.Switch, k.Seq, keys[j-1].Switch, keys[j-1].Seq)
			}
			keys[j] = k
		}
		return nil
	})
	if err != nil {
		return err
	}
	ld.seen.merge(keys)
	if flows > 0 {
		ld.flows.grow(flowSlotsFor(flows))
	}
	heads := make([]uint32, 0, flows)
	err = d.rows(flows, snapFlowLen, func(first int, rows []byte) error {
		for i := range len(rows) / snapFlowLen {
			row := rows[i*snapFlowLen:]
			k, head := (*flowKey)(row), le.Uint32(row[pkt.FlowKeyLen:])
			if head == 0 || int(head) > events {
				f, _ := pkt.FlowKeyFromWire(row) // the row is whole
				return fmt.Errorf("collector: snapshot flow %d (%v) heads at event %d of %d", first+i, f, int64(head)-1, events)
			}
			ld.flows.keys, heads = append(ld.flows.keys, *k), append(heads, head)
		}
		return nil
	})
	if err != nil {
		return err
	}
	// The blocks do not need the index: it is filled beside their
	// decoding, and a repeated key is the first fault.
	repeat := make(chan [2]int, 1)
	go func() {
		id, of := ld.flows.place(heads)
		repeat <- [2]int{id, of}
	}()
	err = ld.readBlocks(d, flows, events, runs)
	if rep := <-repeat; rep[0] >= 0 {
		return fmt.Errorf("collector: snapshot flow %d repeats flow %d's key", rep[0], rep[1])
	}
	if err != nil {
		return err
	}
	// The image is whole. What r says past it is the verdict on the bytes.
	if _, err := r.Read(d.buf[:1]); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("collector: snapshot runs past its %d bytes", size)
		}
		return err
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks, s.n, s.blockBytes, s.sumRows, s.runCap, s.flows = ld.blocks, ld.n, ld.blockBytes, ld.sumRows, ld.runCap, ld.flows
	s.seen, s.dupBatches = ld.seen, ld.dupBatches
	return nil
}

// readBlocks reads an image's blocks into ld, whose flows' keys are
// loaded: each block opened at the widths the live store opened it at,
// its run table checked, its four columns read whole and checked, and its
// summary counted from its runs. Its columns are then filled from the
// image's (see fill) by a goroutine of its own while the next block is
// read: a load run inline, reading and filling in turn, recovers ~6 %
// slower (bench/history).
func (ld *Store) readBlocks(d *snapReader, flows, events, runs int) error {
	le := binary.LittleEndian
	var filling [2]sync.WaitGroup // a block's fill, by the cols it reads
	defer func() {
		for k := range filling {
			filling[k].Wait()
		}
	}()
	named := 0 // one past the highest flow id named so far: a live store's flow count
	for k := 0; ld.n < events; k = 1 - k {
		b := ld.newBlock(named)
		b.n = min(blockLen, events-ld.n)
		if _, err := io.ReadFull(d.r, d.buf[:snapBlockHdrLen]); err != nil {
			return err
		}
		nr := int(le.Uint32(d.buf[:]))
		if nr < 1 || nr > b.n || nr > runs {
			return fmt.Errorf("collector: snapshot block %d of %d events holds %d runs, %d of the header's left", len(ld.blocks), b.n, nr, runs)
		}
		runs -= nr
		b.runs = slices.Grow(b.runs, nr) // capacity as the allocator rounds it: what MemoryBytes charges
		err := d.rows(nr, snapRunLen, func(_ int, rows []byte) error {
			for i := range len(rows) / snapRunLen {
				row, j := rows[i*snapRunLen:], len(b.runs)
				rn := run{start: le.Uint16(row), sw: le.Uint16(row[2:]), ts: int64(le.Uint64(row[4:]))}
				if j == 0 && rn.start != 0 || j > 0 && rn.start <= b.runs[j-1].start || int(rn.start) >= b.n {
					return fmt.Errorf("collector: snapshot block %d: run %d starts at event %d of %d", len(ld.blocks), j, rn.start, b.n)
				}
				if j > 0 && rn.sw == b.runs[j-1].sw && rn.ts == b.runs[j-1].ts {
					return fmt.Errorf("collector: snapshot block %d: runs %d and %d split one run", len(ld.blocks), j-1, j)
				}
				b.runs = append(b.runs, rn)
				b.minTs, b.maxTs = min(b.minTs, rn.ts), max(b.maxTs, rn.ts)
			}
			return nil
		})
		if err != nil {
			return err
		}
		n := b.n
		filling[k].Wait() // the block before last is done with these cols
		cols := d.cols[k][:n*rowBytes]
		if _, err := io.ReadFull(d.r, cols); err != nil {
			return err
		}
		prevs, fids, typs, tails := cols[:4*n], cols[4*n:8*n], cols[8*n:9*n], cols[9*n:]
		ids := min(flows, 1<<b.fbits) // a live store names at most blockLen new flows a block
		for i := range n {
			prev, fid := le.Uint32(prevs[4*i:]), le.Uint32(fids[4*i:])
			if int(prev) > ld.n+i {
				return fmt.Errorf("collector: snapshot event %d links forward to event %d", ld.n+i, prev-1)
			}
			if int(fid) >= ids {
				if int(fid) >= flows {
					return fmt.Errorf("collector: snapshot event %d is of flow %d of %d", ld.n+i, fid, flows)
				}
				return fmt.Errorf("collector: snapshot event %d is of flow %d, past the %d bits of its block's flow ids", ld.n+i, fid, b.fbits)
			}
			named = max(named, int(fid)+1)
		}
		for r := range b.runs {
			start, end := int(b.runs[r].start), b.runEnd(r)
			b.cover(r, start, end)
			row := ld.sumRow(b, b.runs[r].sw)
			for i, t := range typs[start:end] {
				if !fevent.Type(t).Valid() {
					return fmt.Errorf("collector: snapshot event %d: invalid type %d", ld.n+start+i, t)
				}
				row.n[t-1]++
			}
		}
		filling[k].Add(1)
		go func(k int) {
			defer filling[k].Done()
			b.fill(prevs, fids, typs, tails)
		}(k)
		ld.blocks = append(ld.blocks, b)
		ld.n += b.n
		ld.runCap += cap(b.runs)
	}
	if runs != 0 {
		return fmt.Errorf("collector: snapshot blocks hold %d runs fewer than its header's count", runs)
	}
	return nil
}

// fill stores b's events from an image's checked columns of their links,
// flow ids, types and record tails: links packed, types as they are, and
// tails cut to the detail and count, 8 B at a time but the last, each
// store's last 2 B the next tail's first; the hash bytes are passed over.
func (b *block) fill(prevs, fids, typs, tails []byte) {
	le := binary.LittleEndian
	copy(b.typ[:], typs)
	for i := range typs {
		tail := tails[i*fevent.RecordTailLen:]
		b.setLinks(i, le.Uint32(prevs[4*i:]), le.Uint32(fids[4*i:]))
		if i+1 < len(typs) {
			le.PutUint64(b.tail[i*tailLen:], le.Uint64(tail))
		} else {
			*b.tailAt(i) = [tailLen]byte(tail)
		}
	}
}
