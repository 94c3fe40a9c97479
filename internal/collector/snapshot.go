package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"slices"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// Store snapshot encoding, the checkpoint companion of the write-ahead
// log: the store's own representation, each block's columns written as
// they sit in memory, so loading one reads columns into blocks instead of
// re-inserting events. The WAL frames and checksums it as a single
// record, so a torn or corrupt snapshot is rejected whole at recovery
// (the previous snapshot + longer replay then reconstructs the state);
// the checks here only keep a well-checksummed but wrong image from
// indexing out of range.
//
// Layout (little-endian, as the columns are):
//
//	header: magic "NSS5", dupBatches (8 B), seenCount, flowCount,
//	        eventCount, runCount (4 B each)
//	per seen key, in (switch, seq) order: switch (2 B), seq (8 B)
//	per flow, in flow-id order: 13 B flow key, head (4 B, position+1 of its
//	        newest event)
//	per block of n ≤ blockLen events: its run count (4 B), pbits and fbits
//	        (1 B each); its run table, per run: start (2 B), switch (2 B),
//	        stamp (8 B); then its columns: packed links (n × w B, w the
//	        bytes of pbits + fbits), types (n B), tails (n × tailLen B)
//
// Every section is written in an order the store fixes, and the flow
// index is not written at all — a load rebuilds it, re-inserting the
// flows in id order under a fresh seed. A block's widths are written but
// not trusted: a load opens each block as the live store did, from the
// positions and flows named before it, and refuses one written at other
// widths. An image that loads re-encodes to itself byte for byte.
const (
	snapMagic       = "NSS5"
	snapHeaderLen   = len(snapMagic) + 8 + 4*4
	snapSeenLen     = 2 + 8
	snapFlowLen     = pkt.FlowKeyLen + 4
	snapBlockHdrLen = 4 + 1 + 1
	snapRunLen      = 2 + 2 + 8
	// snapMinEvent is the fewest bytes an event takes in an image: its
	// link entry is at least 4 B, a first block's 15 + 14 bits.
	snapMinEvent = 4 + 1 + tailLen
)

// EncodeSnapshot serializes the store's full state. The caller hands the
// bytes to wal.InstallSnapshot; see Server.Checkpoint for the barrier
// that orders the capture against in-flight ingestion.
func (s *Store) EncodeSnapshot() []byte {
	s.mu.RLock()
	defer s.mu.RUnlock()
	le := binary.LittleEndian
	d := &s.flows
	runs, size := 0, snapHeaderLen+s.seen.n*snapSeenLen+len(d.keys)*snapFlowLen
	for _, b := range s.blocks {
		runs += len(b.runs)
		size += snapBlockHdrLen + len(b.runs)*snapRunLen + b.n*(int(b.w)+1+tailLen)
	}
	buf := make([]byte, 0, size)
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
		buf = append(le.AppendUint32(buf, uint32(len(b.runs))), b.pbits, b.fbits)
		for _, r := range b.runs {
			buf = le.AppendUint16(buf, r.start)
			buf = le.AppendUint16(buf, r.sw)
			buf = le.AppendUint64(buf, uint64(r.ts))
		}
		buf = append(buf, b.packed[:b.n*int(b.w)]...)
		buf = append(buf, b.typ[:b.n]...)
		buf = append(buf, b.tail[:b.n*tailLen]...)
	}
	return buf
}

// LoadSnapshot replaces the store's state with a decoded snapshot; on
// error the store is unchanged. It is readSnapshot over the bytes, with
// no tail.
func (s *Store) LoadSnapshot(data []byte) error {
	return s.readSnapshot(bytes.NewReader(data), len(data), nil)
}

// snapChunk is the scratch a load reads fixed-width rows through: the
// dedup keys, the flow rows and the run tables.
const snapChunk = 4 << 10

// snapReader reads an image's sections from r, the fixed-width rows
// through one scratch buffer, and none past the image's end.
type snapReader struct {
	r    io.Reader
	left int // the image's bytes not yet read
	buf  [snapChunk]byte
}

// read fills p with the image's next bytes.
func (d *snapReader) read(p []byte) error {
	if len(p) > d.left {
		return fmt.Errorf("collector: snapshot is cut short: %d bytes wanted, %d left", len(p), d.left)
	}
	d.left -= len(p)
	_, err := io.ReadFull(d.r, p)
	return err
}

// rows reads n rows of width bytes a scratch buffer at a time and hands
// each chunk to fn with the index of its first row.
func (d *snapReader) rows(n, width int, fn func(first int, rows []byte) error) error {
	per := len(d.buf) / width
	for first := 0; first < n; first += per {
		chunk := d.buf[:min(per, n-first)*width]
		if err := d.read(chunk); err != nil {
			return err
		}
		if err := fn(first, chunk); err != nil {
			return err
		}
	}
	return nil
}

// readSnapshot replaces the store's state with the snapshot image of
// size bytes that r yields, followed by what tail stores; on error the
// store is unchanged. wal.ReadSnapshot feeds it as the file is read, and
// tail, if given, is RecoverStore's apply of the WAL tail, whose batches
// dedup against the loaded seen-set. It builds an image in three parts:
//
//   - head: the header, the dedup keys and the flow rows, whose flows go
//     back into the dictionary in id order, each with the id it had;
//   - blocks: readBlocks, on a goroutine that is r's only reader until
//     the join, while the caller places the flows in the dictionary's
//     index (a key listed twice is an error) and runs tail, which needs
//     only the dedup set and the dictionary. Tail events take the
//     positions after the image's, in blocks opened at the widths the
//     sequential replay would open them at; those in the image's last,
//     partial block are staged in a block of their own;
//   - join: wait for the blocks and check the image's end; only if r,
//     asked for a byte past it, answers io.EOF — the WAL's snapshot
//     reader does once the record's checksum has matched — stitch the
//     staged events in and swap the whole in.
//
// tail may return early: RecoverStore does at a record that is not a
// frame, whose handler must see the joined store, and applies the rest
// to s afterwards.
func (s *Store) readSnapshot(r io.Reader, size int, tail func(img *Store)) error {
	le := binary.LittleEndian
	d := &snapReader{r: r, left: size}
	hdr := d.buf[:snapHeaderLen]
	if size < snapHeaderLen {
		return fmt.Errorf("collector: snapshot magic missing or header truncated (%d bytes)", size)
	}
	if err := d.read(hdr); err != nil {
		return err
	}
	if magic := string(hdr[:len(snapMagic)]); magic != snapMagic {
		return fmt.Errorf("collector: snapshot magic %q is not this build's %q", magic, snapMagic)
	}
	seen, flows, events, runs := int(le.Uint32(hdr[12:])), int(le.Uint32(hdr[16:])), int(le.Uint32(hdr[20:])), int(le.Uint32(hdr[24:]))
	blocks := (events + blockLen - 1) / blockLen
	if least := snapHeaderLen + seen*snapSeenLen + flows*snapFlowLen + blocks*snapBlockHdrLen + runs*snapRunLen + events*snapMinEvent; size < least {
		return fmt.Errorf("collector: snapshot is %d bytes, its header promises at least %d (%d seen keys, %d flows, %d events, %d runs)", size, least, seen, flows, events, runs)
	}
	// The image under construction: its dedup set and dictionary here,
	// its blocks in bl, the tail's blocks after them here.
	ld := &Store{n: events, dupBatches: le.Uint64(hdr[4:]), detectToStore: s.detectToStore}
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

	bl, done := &Store{}, make(chan error, 1)
	go func() { done <- bl.readBlocks(d, flows, events, runs) }()
	id, of := ld.flows.place(heads)
	if id < 0 && tail != nil {
		if i := events % blockLen; i != 0 {
			stage := openBlock(events-i, flows)
			stage.n = i
			ld.blocks = append(ld.blocks, stage)
		}
		tail(ld)
	}
	err = <-done
	if id >= 0 {
		return fmt.Errorf("collector: snapshot flow %d repeats flow %d's key", id, of)
	}
	if err != nil {
		return err
	}
	if d.left != 0 {
		return fmt.Errorf("collector: snapshot holds %d bytes past its blocks", d.left)
	}
	// The image is whole. What r says past it is the verdict on the bytes.
	if _, err := r.Read(d.buf[:1]); err != io.EOF {
		if err == nil {
			err = fmt.Errorf("collector: snapshot runs past its %d bytes", size)
		}
		return err
	}
	bl.stitch(ld, events)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.blocks, s.n, s.blockBytes, s.sumRows, s.runCap = bl.blocks, bl.n, bl.blockBytes, bl.sumRows, bl.runCap
	s.flows, s.seen, s.dupBatches = ld.flows, ld.seen, ld.dupBatches
	return nil
}

// stitch appends to bl, an image's blocks, the blocks tl stored after its
// events — the first of them, if the image ends mid-block, the stage
// whose events belong in the image's last block — charging what the
// store would have charged had tl's events been appended to bl itself.
// A staged event is written into the image's last block as appendRun
// writes one: its columns, its links at that block's widths, its run (the
// image's last run, if it continues it), its hints and its summary row.
func (bl *Store) stitch(tl *Store, events int) {
	bl.n = tl.n
	if events%blockLen != 0 && len(tl.blocks) > 0 {
		b, stage := bl.blocks[len(bl.blocks)-1], tl.blocks[0]
		tl.blocks = tl.blocks[1:]
		tl.runCap -= cap(stage.runs)
		tl.sumRows -= len(stage.sum)
		copy(b.typ[b.n:stage.n], stage.typ[b.n:stage.n])
		copy(b.tail[b.n*tailLen:stage.n*tailLen], stage.tail[b.n*tailLen:stage.n*tailLen])
		for i := b.n; i < stage.n; i++ {
			prev, fid := stage.links(i)
			b.setLinks(i, prev, fid)
		}
		for r := range stage.runs {
			rn, last := stage.runs[r], len(b.runs)-1
			if r > 0 || b.runs[last].sw != rn.sw || b.runs[last].ts != rn.ts {
				bl.runCap -= cap(b.runs)
				b.runs = append(b.runs, rn)
				bl.runCap += cap(b.runs)
			}
			b.cover(len(b.runs)-1, int(rn.start), stage.runEnd(r))
		}
		for _, row := range stage.sum {
			dst := bl.sumRow(b, row.sw)
			for t, c := range row.n {
				dst.n[t] += c
			}
		}
		b.n, b.minTs, b.maxTs = stage.n, min(b.minTs, stage.minTs), max(b.maxTs, stage.maxTs)
	}
	for _, b := range tl.blocks {
		bl.blocks = append(bl.blocks, b) // one at a time, as appendRun grows the list
	}
	bl.blockBytes += tl.blockBytes
	bl.sumRows += tl.sumRows
	bl.runCap += tl.runCap
}

// readBlocks reads an image's blocks into ld, whose flows' keys are
// loaded: each block opened at the widths the live store opened it at,
// its run table checked, and its three columns read into it as they are,
// then checked and counted into its summary in one pass over its runs.
func (ld *Store) readBlocks(d *snapReader, flows, events, runs int) error {
	le := binary.LittleEndian
	named := 0 // one past the highest flow id named so far: a live store's flow count
	for ld.n < events {
		if err := d.read(d.buf[:snapBlockHdrLen]); err != nil {
			return err
		}
		nr, pbits, fbits := int(le.Uint32(d.buf[:])), d.buf[4], d.buf[5]
		b := ld.newBlock(named)
		b.n = min(blockLen, events-ld.n)
		if pbits != b.pbits || fbits != b.fbits {
			return fmt.Errorf("collector: snapshot block %d is packed at %d + %d bits, where a store opens it at %d + %d", len(ld.blocks), pbits, fbits, b.pbits, b.fbits)
		}
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
		n, w := b.n, int(b.w)
		for _, col := range [...][]byte{b.packed[:n*w], b.typ[:n], b.tail[:n*tailLen]} {
			if err := d.read(col); err != nil {
				return err
			}
		}
		top := b.pbits + b.fbits - 8*(b.w-1) // the bits of an entry's last byte its link and id use
		for r := range b.runs {
			start, end := int(b.runs[r].start), b.runEnd(r)
			b.cover(r, start, end)
			row := ld.sumRow(b, b.runs[r].sw)
			for i := start; i < end; i++ {
				if b.packed[i*w+w-1]>>top != 0 {
					return fmt.Errorf("collector: snapshot event %d sets bits past the %d + %d of its link", ld.n+i, b.pbits, b.fbits)
				}
				prev, fid := b.links(i)
				if int(prev) > ld.n+i {
					return fmt.Errorf("collector: snapshot event %d links forward to event %d", ld.n+i, prev-1)
				}
				if int(fid) >= flows {
					return fmt.Errorf("collector: snapshot event %d is of flow %d of %d", ld.n+i, fid, flows)
				}
				named = max(named, int(fid)+1)
				t := b.typ[i]
				if !fevent.Type(t).Valid() {
					return fmt.Errorf("collector: snapshot event %d: invalid type %d", ld.n+i, t)
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
	return nil
}
