// Package collector implements NetSeer's backend: an event store that
// ingests batches from switch CPUs (in-process or over TCP with
// length-prefixed frames) and answers the queries of §3.2 — by flow, by
// event type, by device, or by time window.
package collector

import (
	"encoding/binary"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"
	"unsafe"

	"netseer/internal/obs"
	"netseer/internal/obs/trace"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// blockLen is the events per block: 16 Ki × ~12 B of columns ≈ 0.19 MB,
// so a near-empty store costs one modest allocation and a time-slice scan
// prunes, by [minTs, maxTs], to a handful of blocks (DESIGN §10).
const blockLen = 16 << 10

// tailLen is what a block keeps of a record beside its type byte and its
// flow id: the detail and count bytes. A record's hash is not kept: the
// store holds it to be its flow key's CRC-32C (pkt.WireHash), the hash
// every producer attaches (§3.4), and every reader writes that.
const tailLen = fevent.RecordHashOff - fevent.RecordTailOff

// hintStride is how many positions one entry of a block's run hint
// covers: a run lookup steps over at most hintStride-1 runs.
const hintStride = 64

// appendChunk is how many records appendRun passes through the flow
// dictionary at a time.
const appendChunk = 128

// run is a maximal run of a block's events that share a reporting switch
// and a stamp: a CEBP batch, reported by one switch CPU at one instant,
// is one run (two, if it straddles a block end).
type run struct {
	ts    int64  // the stamp of every event of the run
	start uint16 // the block position of its first event
	sw    uint16 // the switch that reported it
}

// blockCols is what a block holds of each event's 24 B record: typ, its
// type, so a filtered scan reads 1 B an event; and tail, its detail and
// count. 16 Ki × 7 B is a whole number of pages.
type blockCols struct {
	typ  [blockLen]uint8
	tail [blockLen * tailLen]byte
}

// block is a fixed-size, append-only partition of the event log: a small
// header — summary, run table, time range, run hints —
// over pointer-free columns. Beside the record columns, event i's chain
// link and flow id are one little-endian entry of w bytes at packed[i*w:],
// the link in the low pbits, the id in the fbits above. The widths are
// fixed when the block opens, from the positions and flows its events can
// then come to name (5 B an event at 2 M events over 200 K flows), so
// every entry is written once, as its event is appended. The pointers
// come first, so the GC's scan of a header ends before its scalars.
type block struct {
	// sum counts the block's events per reporting switch and type, one
	// row a switch, sorted by switch: what a read consults before it
	// touches a column (DESIGN §10).
	sum []sumRow
	// runs holds the switch and stamp of every event, one entry a run, in
	// position order; hint[k] is the run holding position k×hintStride.
	runs []run
	*blockCols
	packed []byte

	n               int // events held; only the last block is partial
	minTs, maxTs    int64
	w, pbits, fbits uint8
	hint            [blockLen / hintStride]uint16
}

// sumRow counts one block's events from one reporting switch, by type
// (n[t-1]): a block holds at most blockLen events, so 16 bits a cell.
type sumRow struct {
	sw uint16
	n  [fevent.TypeAggSpike]uint16
}

const _ = uint16(blockLen) // a cell can count a whole block, a hint name any run

// openBlock returns an empty block for a store that holds the given
// events and flows: its links get the bits of positions up to
// events+blockLen and of flow ids up to flows+blockLen−1, the most its
// events can name, each capped at the 32 bits of a position or an id.
func openBlock(events, flows int) *block {
	pb, fb := min(bits.Len(uint(events+blockLen)), 32), min(bits.Len(uint(flows+blockLen-1)), 32)
	w := (pb + fb + 7) / 8
	return &block{blockCols: new(blockCols), packed: make([]byte, blockLen*w),
		w: uint8(w), pbits: uint8(pb), fbits: uint8(fb), minTs: math.MaxInt64, maxTs: math.MinInt64}
}

// find returns where switch sw's row sits in b.sum, or belongs.
func (b *block) find(sw uint16) (int, bool) {
	return slices.BinarySearchFunc(b.sum, sw, func(r sumRow, sw uint16) int { return int(r.sw) - int(sw) })
}

// count returns, from the summary alone, how many of b's events carry q's
// switch and type — every match of q in b is among them.
func (b *block) count(q *selector) int {
	if !q.bySw && q.typ == 0 {
		return b.n
	}
	rows := b.sum
	if q.bySw {
		i, ok := b.find(q.sw)
		if !ok {
			return 0
		}
		rows = rows[i : i+1]
	}
	n := 0
	for i := range rows {
		if q.typ != 0 {
			n += int(rows[i].n[q.typ-1])
			continue
		}
		for _, c := range rows[i].n {
			n += int(c)
		}
	}
	return n
}

// runAt returns the index of the run holding event i: its hint, then
// forward over the runs that start by i. A run of a batch's length is
// found in a step or none; runs of one event take at most hintStride-1.
func (b *block) runAt(i int) int {
	r := int(b.hint[i/hintStride])
	for r+1 < len(b.runs) && int(b.runs[r+1].start) <= i {
		r++
	}
	return r
}

// runEnd returns one past the last position of run r.
func (b *block) runEnd(r int) int {
	if r+1 < len(b.runs) {
		return int(b.runs[r+1].start)
	}
	return b.n
}

// cover points the hints of positions [from, to) at run r.
func (b *block) cover(r, from, to int) {
	for h := (from + hintStride - 1) / hintStride; h*hintStride < to; h++ {
		b.hint[h] = uint16(r)
	}
}

// tailAt returns event i's tail.
func (c *blockCols) tailAt(i int) *[tailLen]byte { return (*[tailLen]byte)(c.tail[i*tailLen:]) }

// links returns event i's chain link and flow id, the one reader of both:
// one 8 B load, at the entry or, where fewer than 8 B are left before the
// column's end, at the column's last 8 B, shifted down to the entry; the
// bits past the entry are masked off.
func (b *block) links(i int) (prev, fid uint32) {
	at := i * int(b.w)
	from := min(at, len(b.packed)-8)
	v := binary.LittleEndian.Uint64(b.packed[from:]) >> (8 * (at - from))
	// A uint32 shift by 32 is 0, so a mask of 32 bits is all ones.
	return uint32(v) & (1<<b.pbits - 1), uint32(v>>b.pbits) & (1<<b.fbits - 1)
}

// setLinks writes event i's entry, the one writer of the column. Entries
// are written in position order, so an 8 B store may run over the next
// ones, which are still zero and are written later; an entry within 8 B
// of the column's end is written byte by byte.
func (b *block) setLinks(i int, prev, fid uint32) {
	at, v := i*int(b.w), uint64(prev)|uint64(fid)<<b.pbits
	if at+8 <= len(b.packed) {
		binary.LittleEndian.PutUint64(b.packed[at:], v)
		return
	}
	for k := range int(b.w) {
		b.packed[at+k] = byte(v >> (8 * k))
	}
}

// record writes the 24 B record image of event i, of flow fid, to rec:
// its type, its flow's key from the dictionary d, its tail and that key's
// CRC as its hash — the record it was stored from, its hash made the
// key's.
func (b *block) record(d *flowTable, fid uint32, i int, rec *[fevent.RecordLen]byte) {
	key := (*flowKey)(rec[fevent.RecordFlowOff:])
	rec[0], *key = b.typ[i], d.keys[fid]
	*(*[tailLen]byte)(rec[fevent.RecordTailOff:]) = *b.tailAt(i)
	binary.BigEndian.PutUint32(rec[fevent.RecordHashOff:], pkt.WireHash(key))
}

// load materialises event i, of run r and flow fid, from the columns as
// DecodeRecord would from its record; types are validated on every way
// in, so the type byte is always valid.
func (b *block) load(d *flowTable, fid uint32, r *run, i int, e *fevent.Event) {
	tail, key := b.tailAt(i), &d.keys[fid]
	e.Type = fevent.Type(b.typ[i])
	e.Flow.SetWire(key)
	e.SetDetail(binary.BigEndian.Uint32(tail[:4]))
	e.Count = binary.BigEndian.Uint16(tail[4:])
	e.Hash = pkt.WireHash(key)
	e.SwitchID, e.Timestamp = r.sw, sim.Time(r.ts)
}

// Store is an in-memory event store: append-only blocks in ingestion
// order plus a flow dictionary — each flow's key and newest event,
// O(flows) not O(events). The 4 B chain link caps it at 2³²−1 events
// (70–80 GB of blocks; -mem-budget sheds long before). It is safe for
// concurrent use (the TCP server ingests from multiple switch
// connections).
type Store struct {
	mu         sync.RWMutex
	blocks     []*block
	n          int       // stored events
	blockBytes int64     // what the blocks' headers, columns and links have allocated
	sumRows    int       // summary rows over all blocks
	runCap     int       // run-table capacity over all blocks, in runs
	flows      flowTable // flow id → key and position+1 of its newest event
	// chunk is appendRun's scratch for a chunk of records' new and old
	// heads and flow ids, kept here so that no call clears it.
	chunk struct{ heads, ids [appendChunk]uint32 }

	// Replay dedup for the at-least-once delivery channel.
	seen       seenSet
	dupBatches uint64

	// detectToStore is the end-to-end staleness histogram: microseconds on
	// the switch clock from an event's Step-2 report timestamp to its batch
	// timestamp at storage time (the batch stamp is the last switch-side
	// clock reading the event carries). This is only non-degenerate for
	// batches delivered in-process (experiments testbed, oracle): the 24 B
	// wire record carries no per-event stamp, so every event of a frame
	// payload is stamped from the batch header and a store fed over TCP
	// legally observes 0 — "no staler than the batch stamp". Over the wire
	// the switch-side leg is covered by the exporter's detect→CPU histogram
	// and the collector-side leg by ingest lag.
	detectToStore *obs.Histogram

	// traceShard labels the store-index spans, and the ingest and
	// WAL-fsync spans of the server over the store, with the owning fabric
	// shard (0 standalone). StartNode writes it once before ingestion
	// starts, so unguarded.
	traceShard uint32
}

// NewStore returns an empty store; blocks are allocated on demand.
func NewStore() *Store {
	s := &Store{detectToStore: obs.NewHistogram(obs.LatencyBuckets())}
	s.resetEvents()
	return s
}

// resetEvents drops every event, keeping the dedup state.
func (s *Store) resetEvents() {
	s.blocks, s.n, s.blockBytes, s.sumRows, s.runCap, s.flows = nil, 0, 0, 0, 0, flowTable{}
}

// newBlock returns an empty block opened on the store's events and the
// given flows — the dictionary's length, except while a snapshot loads —
// and charges what it allocated.
func (s *Store) newBlock(flows int) *block {
	b := openBlock(s.n, flows)
	s.blockBytes += blockMemCost + pageBytes(len(b.packed))
	return b
}

// sumRow returns b's summary row for switch sw, inserting it.
func (s *Store) sumRow(b *block, sw uint16) *sumRow {
	i, ok := b.find(sw)
	if !ok {
		b.sum = slices.Insert(b.sum, i, sumRow{sw: sw})
		s.sumRows++
	}
	return &b.sum[i]
}

// appendRun stores a run of records — n × fevent.RecordLen bytes with
// valid type bytes, all reported by switch sw at ts — at the next
// positions, split into columns a block at a time and indexed from their
// bytes: the only writer of the columns, the links, the flow chains and
// — once per block the run touches — the run tables and the summaries. A
// run that continues the block's last one (same switch, same stamp)
// extends it, so runs are maximal however their records arrive.
func (s *Store) appendRun(sw uint16, ts int64, recs []byte) {
	heads, ids := &s.chunk.heads, &s.chunk.ids
	for len(recs) > 0 {
		i := s.n % blockLen
		if i == 0 {
			s.blocks = append(s.blocks, s.newBlock(len(s.flows.keys)))
		}
		b := s.blocks[len(s.blocks)-1]
		c := b.blockCols
		k := min(blockLen-i, len(recs)/fevent.RecordLen, appendChunk)
		if last := len(b.runs) - 1; last < 0 || b.runs[last].sw != sw || b.runs[last].ts != ts {
			s.runCap -= cap(b.runs)
			b.runs = append(b.runs, run{ts: ts, start: uint16(i), sw: sw})
			s.runCap += cap(b.runs)
		}
		b.cover(len(b.runs)-1, i, i+k)
		for j := range k {
			heads[j] = uint32(s.n + j + 1) // the new head, swapped for the old
		}
		s.flows.swapRun(recs[fevent.RecordFlowOff:], fevent.RecordLen, heads[:k], ids[:k])
		row, typ, tails := s.sumRow(b, sw), c.typ[i:i+k], c.tail[i*tailLen:(i+k)*tailLen]
		for j := range typ {
			rec := recs[j*fevent.RecordLen:][:fevent.RecordLen]
			typ[j] = rec[0]
			*(*[tailLen]byte)(tails[j*tailLen:]) = [tailLen]byte(rec[fevent.RecordTailOff:])
			row.n[rec[0]-1]++
			b.setLinks(i+j, heads[j], ids[j])
		}
		s.n += k
		b.n += k
		b.minTs, b.maxTs = min(b.minTs, ts), max(b.maxTs, ts)
		recs = recs[k*fevent.RecordLen:]
	}
}

// appendEvents stores decoded events through appendRun, encoding each
// maximal run that shares a switch and a stamp (an in-process batch
// stamps events one by one) into a stack buffer of records.
func (s *Store) appendEvents(events []fevent.Event) {
	var buf [64 * fevent.RecordLen]byte
	for i := 0; i < len(events); {
		first, recs := &events[i], buf[:0]
		for ; i < len(events) && len(recs) < len(buf) && events[i].SwitchID == first.SwitchID && events[i].Timestamp == first.Timestamp; i++ {
			if !events[i].Type.Valid() {
				panic("collector: storing event with invalid type " + strconv.Itoa(int(events[i].Type)))
			}
			recs = events[i].AppendRecord(recs)
		}
		s.appendRun(first.SwitchID, int64(first.Timestamp), recs)
	}
}

// Deliver implements core.EventSink: ingest one decoded batch.
func (s *Store) Deliver(b *fevent.Batch) {
	s.deliver(&Payload{SwitchID: b.SwitchID, Timestamp: b.Timestamp, Seq: b.Seq, Trace: b.Trace}, b.Events)
}

// DeliverPayload ingests one verified frame payload without decoding it:
// the path of the TCP server and of WAL recovery.
func (s *Store) DeliverPayload(p *Payload) { s.deliver(p, nil) }

// deliver ingests one batch — its header in p, its events as p.Records or
// decoded. Sequenced batches (Seq != 0 — the reliable TCP channel) are
// deduplicated by (switch, sequence): a retransmission of an
// already-stored batch is dropped, so at-least-once delivery becomes
// exactly-once storage.
func (s *Store) deliver(p *Payload, events []fevent.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if p.Seq != 0 && !s.seen.add(p.SwitchID, p.Seq) {
		s.dupBatches++
		return
	}
	// Every batch with an assigned trace ID opens a store-index span, but
	// only sampled batches — or batches whose append pass crossed the
	// slow threshold — record it: the slow path is captured regardless of
	// the sampling modulus.
	var sp trace.Span
	if p.Trace.Valid() {
		sp = trace.Begin(p.Trace, trace.StageStoreIndex)
		sp.SwitchID = p.SwitchID
		sp.Seq = p.Seq
		sp.Shard = s.traceShard
		sp.Events = uint32(p.Events() + len(events))
	}
	s.appendRun(p.SwitchID, int64(p.Timestamp), p.Records)
	s.appendEvents(events)
	// Staleness is observed in runs of equal readings; a payload's records
	// all carry the batch stamp and are one run of zeros. The exemplar
	// pairs the bucket with the batch's trace ID, so a tail-latency bucket
	// on /metrics links straight to the trace that landed in it.
	s.detectToStore.ObserveN(0, uint64(p.Events()), p.Trace.TraceID)
	for i := 0; i < len(events); {
		d, j := p.Timestamp-events[i].Timestamp, i+1
		for j < len(events) && p.Timestamp-events[j].Timestamp == d {
			j++
		}
		if d >= 0 {
			s.detectToStore.ObserveN(float64(d)/1e3, uint64(j-i), p.Trace.TraceID)
		}
		i = j
	}
	if p.Trace.Valid() {
		sp.End = trace.Now()
		if slow := trace.SlowThreshold(); p.Trace.Sampled() || (slow > 0 && sp.End-sp.Start >= slow) {
			trace.Record(sp)
		}
	}
}

// TraceExemplars returns the detect→store histogram's per-bucket latency
// exemplars: the last trace ID to land in each bucket.
func (s *Store) TraceExemplars() []obs.Exemplar {
	return s.detectToStore.Snapshot().Exemplars
}

// RegisterMetrics exposes the store's instruments on r: per-(type, switch)
// resident event counts, the distinct-flow gauge, the dedup counter and
// the detection→store staleness histogram.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.SamplesFunc(obs.MStoreEvents, func() []obs.Sample {
		s.mu.RLock()
		defer s.mu.RUnlock()
		var out []obs.Sample
		for k, n := range s.totals() {
			labels := []obs.Label{obs.L("type", k.t.String()), obs.L("switch", strconv.Itoa(int(k.sw)))}
			out = append(out, obs.Sample{Labels: labels, Value: float64(n)})
		}
		return out
	})
	r.Func(obs.MStoreFlows, func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.flows.keys))
	})
	r.Func(obs.MStoreDupBatches, func() float64 {
		return float64(s.DupBatches())
	})
	r.RegisterHistogram(obs.MDetectToStore, s.detectToStore)
}

// DupBatches returns how many replayed batches dedup has dropped — the
// duplicate side of the at-least-once channel's accounting.
func (s *Store) DupBatches() uint64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dupBatches
}

// SeenBatch reports whether the sequenced batch (sw, seq) is already
// stored. The durable server asks before logging a frame: a replayed
// batch needs an ack but neither a WAL record nor a second delivery.
func (s *Store) SeenBatch(sw uint16, seq uint64) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.seen.has(sw, seq)
}

// Resident cost of what the store holds, for admission control. The
// store struct and its detect→store histogram are charged from the start,
// the block list 8 B for each block it has room for; a block is charged
// what it allocates, when it allocates it — its header, rounded up to a
// 128 B size class, its record columns and its links, rounded up to the
// allocator's 8 KiB pages, at opening; a run table and the flow
// dictionary for every entry and index cell they have allocated; a summary
// row twice its 16 B, the capacity of a slice that has just doubled; and
// the dedup set for the capacity of its slices. So the estimate errs high
// and admission control engages early, not late
// (TestMemoryBytesCoversTheHeap).
const (
	storeMemCost  = int64(unsafe.Sizeof(Store{}))
	blockMemCost  = (int64(unsafe.Sizeof(block{}))+127)&^127 + int64(unsafe.Sizeof(blockCols{})+8191)&^8191
	runMemCost    = int64(unsafe.Sizeof(run{}))
	sumRowMemCost = 2 * 16
)

// pageBytes is n bytes rounded up to the allocator's 8 KiB pages.
func pageBytes(n int) int64 { return int64(n+8191) &^ 8191 }

// MemoryBytes estimates the store's resident memory — the quantity the
// ingest server's admission watermarks are defined over.
func (s *Store) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return storeMemCost + s.detectToStore.MemoryBytes() + int64(cap(s.blocks))*8 +
		s.blockBytes + int64(s.runCap)*runMemCost + int64(s.sumRows)*sumRowMemCost +
		flowTableBytes(len(s.flows.index)) + s.seen.mem
}

// Len returns the number of stored events.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.n
}

// Filter selects events. Zero/nil fields match everything.
type Filter struct {
	// Flow restricts to one 5-tuple when non-nil.
	Flow *pkt.FlowKey
	// SwitchID restricts to one device when non-nil.
	SwitchID *uint16
	// Type restricts to one event type (0 = all).
	Type fevent.Type
	// Since/Until bound the batch timestamp (inclusive); Until 0 = +inf.
	Since sim.Time
	Until sim.Time
	// DropCode restricts drop events to one reason (DropNone = all).
	DropCode fevent.DropCode
}

// selector is a Filter resolved into the columns' own types: what one
// event must satisfy.
type selector struct {
	bySw         bool
	sw           uint16
	typ, code    uint8 // 0 = any
	since, until int64
}

// covers says b lies wholly inside [since, until], so its stamps need no
// look.
func (q *selector) covers(b *block) bool { return q.since <= b.minTs && b.maxTs <= q.until }

// keeps tests the switch and, unless inWindow, the stamp of run r.
func (q *selector) keeps(r *run, inWindow bool) bool {
	return (!q.bySw || r.sw == q.sw) && (inWindow || r.ts >= q.since && r.ts <= q.until)
}

// match tests event i of b on what its run does not settle — type and
// drop code — reading only the columns q names.
func (q *selector) match(b *block, i int) bool {
	return (q.typ == 0 || b.typ[i] == q.typ) &&
		(q.code == 0 || b.tail[i*tailLen+fevent.RecordDropCodeOff-fevent.RecordTailOff] == q.code)
}

// visit calls fn(b, r, i, fid) for every stored event matching f — event
// i of block b, in run r, of flow fid — in ingestion order, with s.mu
// held, and returns how many match: the store's only read path. A flow
// filter walks that flow's chain (newest first, replayed reversed), so a
// point lookup costs O(the flow's events) and reads no fid; a step looks
// up its event's run only to test a switch or a stamp the block does not
// settle, or to hand it to fn.
// Anything else goes block by block: one whose [minTs, maxTs] misses
// [Since, Until], or whose summary holds no event of f's switch and type,
// is skipped; with a nil fn — a count — one lying inside the window is
// answered from its summary without reading an event; the rest (window
// edges, a drop code) are scanned a run at a time, switch and stamp
// tested once a run, type and code column-wise within it.
func (s *Store) visit(f *Filter, fn func(b *block, r *run, i int, fid uint32)) int {
	q := selector{bySw: f.SwitchID != nil, typ: uint8(f.Type), code: uint8(f.DropCode), since: int64(f.Since), until: int64(f.Until)}
	if q.bySw {
		q.sw = *f.SwitchID
	}
	if q.until == 0 {
		q.until = math.MaxInt64
	}
	if q.code != 0 { // only drops carry a code
		if q.typ != 0 && q.typ != uint8(fevent.TypeDrop) {
			return 0
		}
		q.typ = uint8(fevent.TypeDrop)
	}
	total := 0
	if f.Flow != nil {
		var buf [64]uint32 // most chains fit: no heap for a point lookup
		chain := buf[:0]
		var key flowKey
		f.Flow.PutWire(key[:])
		c := s.flows.lookup(key[:])
		fid := c.id - 1
		for link := c.head; link != 0; {
			b, i := s.blocks[(link-1)/blockLen], int((link-1)%blockLen)
			inWindow := q.covers(b)
			if q.match(b, i) && (!q.bySw && inWindow || q.keeps(&b.runs[b.runAt(i)], inWindow)) {
				total++
				if fn != nil {
					chain = append(chain, link-1)
				}
			}
			link, _ = b.links(i)
		}
		for k := len(chain) - 1; k >= 0; k-- {
			b, i := s.blocks[chain[k]/blockLen], int(chain[k]%blockLen)
			fn(b, &b.runs[b.runAt(i)], i, fid)
		}
		return total
	}
	for _, b := range s.blocks {
		if b.maxTs < q.since || q.until < b.minTs {
			continue
		}
		n := b.count(&q)
		if n == 0 {
			continue
		}
		inWindow := q.covers(b)
		if fn == nil && inWindow && q.code == 0 {
			total += n
			continue
		}
		for r := range b.runs {
			ru := &b.runs[r]
			if !q.keeps(ru, inWindow) {
				continue
			}
			for i, end := int(ru.start), b.runEnd(r); i < end; i++ {
				if q.match(b, i) {
					total++
					if fn != nil {
						_, fid := b.links(i)
						fn(b, ru, i, fid)
					}
				}
			}
		}
	}
	return total
}

// Query returns all events matching the filter in ingestion order.
func (s *Store) Query(f Filter) []fevent.Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	// A flow's chain is walked once and its short result grows by append;
	// anything else is counted first — summary rows, plus a scan of the
	// window's edge blocks — and allocated once.
	var out []fevent.Event
	if f.Flow == nil {
		out = make([]fevent.Event, 0, s.visit(&f, nil))
	}
	s.visit(&f, func(b *block, r *run, i int, fid uint32) {
		out = append(out, fevent.Event{})
		b.load(&s.flows, fid, r, i, &out[len(out)-1])
	})
	return out
}

// Count returns how many events match the filter, materialising none.
func (s *Store) Count(f Filter) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.visit(&f, nil)
}

// Flows returns the distinct flows with stored events, in the order the
// store first saw them.
func (s *Store) Flows() []pkt.FlowKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]pkt.FlowKey, len(s.flows.keys))
	for i := range s.flows.keys {
		out[i].SetWire(&s.flows.keys[i])
	}
	return out
}

// swType names one (reporting switch, type) cell of the summaries.
type swType struct {
	sw uint16
	t  fevent.Type
}

// totals sums the block summaries — the store's only count table — into
// stored events per (switch, type), with s.mu held.
func (s *Store) totals() map[swType]int {
	out := make(map[swType]int)
	for _, b := range s.blocks {
		for i := range b.sum {
			for t, n := range b.sum[i].n {
				if n != 0 {
					out[swType{b.sum[i].sw, fevent.Type(t + 1)}] += int(n)
				}
			}
		}
	}
	return out
}

// CountByType returns event counts per type.
func (s *Store) CountByType() map[fevent.Type]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[fevent.Type]int)
	for k, n := range s.totals() {
		out[k.t] += n
	}
	return out
}

// SummaryRow is one (switch, type) aggregate.
type SummaryRow struct {
	SwitchID uint16
	Type     fevent.Type
	Events   int
	Flows    int
}

// Summary aggregates stored events per (switch, type) — the operator's
// first look at where the network is misbehaving. Event counts come from
// the block summaries; distinct flows take a pass over the flow ids.
func (s *Store) Summary() []SummaryRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	flowSets := make(map[swType]map[uint32]struct{})
	s.visit(&Filter{}, func(b *block, r *run, i int, fid uint32) {
		k := swType{r.sw, fevent.Type(b.typ[i])}
		if flowSets[k] == nil {
			flowSets[k] = make(map[uint32]struct{})
		}
		flowSets[k][fid] = struct{}{}
	})
	counts := s.totals()
	out := make([]SummaryRow, 0, len(counts))
	for k, n := range counts {
		out = append(out, SummaryRow{SwitchID: k.sw, Type: k.t, Events: n, Flows: len(flowSets[k])})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SwitchID != out[j].SwitchID {
			return out[i].SwitchID < out[j].SwitchID
		}
		return out[i].Type < out[j].Type
	})
	return out
}

// PathHop is one switch a flow was observed traversing.
type PathHop struct {
	SwitchID uint16
	In, Out  uint8
	At       sim.Time
}

// PathOf reconstructs a flow's most recent path from its path-change
// events, ordered by observation time — the "unknown flow paths" gap
// operators hit in the paper's case #1. For each switch the latest
// observation wins.
func (s *Store) PathOf(flow pkt.FlowKey) []PathHop {
	s.mu.RLock()
	defer s.mu.RUnlock()
	latest := make(map[uint16]PathHop)
	var e fevent.Event
	s.visit(&Filter{Flow: &flow, Type: fevent.TypePathChange}, func(b *block, r *run, i int, fid uint32) {
		b.load(&s.flows, fid, r, i, &e)
		if prev, ok := latest[e.SwitchID]; !ok || e.Timestamp >= prev.At {
			latest[e.SwitchID] = PathHop{
				SwitchID: e.SwitchID, In: e.IngressPort, Out: e.EgressPort, At: e.Timestamp,
			}
		}
	})
	out := make([]PathHop, 0, len(latest))
	for _, h := range latest {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].SwitchID < out[j].SwitchID
	})
	return out
}

// LatencyHistogram aggregates the queue-latency (µs) of the stored
// congestion events f selects over the shared latency layout; f.Type is
// taken as congestion whatever it holds.
func (s *Store) LatencyHistogram(f Filter) obs.HistogramSnapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := obs.NewHistogram(obs.LatencyBuckets())
	var e fevent.Event
	f.Type = fevent.TypeCongestion
	s.visit(&f, func(b *block, r *run, i int, fid uint32) {
		b.load(&s.flows, fid, r, i, &e)
		h.Observe(float64(e.QueueLatencyUs))
	})
	return h.Snapshot()
}
