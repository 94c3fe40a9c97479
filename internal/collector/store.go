// Package collector implements NetSeer's backend: an event store that
// ingests batches from switch CPUs (in-process or over TCP with
// length-prefixed frames) and answers the queries of §3.2 — by flow, by
// event type, by device, or by time window.
package collector

import (
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"

	"netseer/internal/obs"
	"netseer/internal/obs/trace"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// batchKey identifies a sequenced batch for replay deduplication: the
// reliable client assigns lifetime-monotonic sequence numbers, so one
// (switch, sequence) pair names exactly one batch even across
// reconnects. One producer per switch ID is assumed (it is the switch's
// own CPU).
type batchKey struct {
	sw  uint16
	seq uint64
}

// blockLen is the events per block: 16 Ki × 39 B of columns ≈ 0.6 MB, so
// a near-empty store costs one modest allocation and a time-slice scan
// prunes, by [minTs, maxTs], to a handful of blocks (DESIGN §10).
const blockLen = 16 << 10

// rowBytes is what one event occupies across a block's columns, in
// memory and in a snapshot alike.
const rowBytes = 8 + 4 + 2 + 1 + fevent.RecordLen

// block is a fixed-size, append-only partition of the event log, held as
// pointer-free columns behind its summary. rec is the 24 B record the
// wire, the WAL and the snapshot carry; sw and typ repeat two of its
// fields so a filtered scan reads 3 B an event, not 24. prev chains each
// event to the previous event of its flow, as position+1 (0 = none),
// across blocks.
type block struct {
	// sum counts the block's events per reporting switch and type, one
	// row a switch, sorted by switch: what a read consults before it
	// touches a column (DESIGN §10). It is the struct's only pointer and
	// stays its first field, so the GC's scan of a block ends after one
	// word.
	sum []sumRow

	n            int // events held; only the last block is partial
	minTs, maxTs int64
	ts           [blockLen]int64
	prev         [blockLen]uint32
	sw           [blockLen]uint16
	typ          [blockLen]uint8
	rec          [blockLen * fevent.RecordLen]byte
}

// sumRow counts one block's events from one reporting switch, by type
// (n[t-1]): a block holds at most blockLen events, so 16 bits a cell.
type sumRow struct {
	sw uint16
	n  [fevent.TypeAggSpike]uint16
}

const _ = uint16(blockLen) // a cell can count a whole block

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

// load materialises event i; types are validated on every way in, so the
// record always decodes.
func (b *block) load(i int, e *fevent.Event) {
	_ = e.DecodeRecord(b.rec[i*fevent.RecordLen:])
	e.SwitchID, e.Timestamp = b.sw[i], sim.Time(b.ts[i])
}

// Store is an in-memory event store: append-only blocks in ingestion
// order plus a flow → newest-event table, O(flows) not O(events). The
// 4 B chain link caps it at 2³²−1 events (168 GB of blocks; -mem-budget
// sheds long before). It is safe for concurrent use (the TCP server
// ingests from multiple switch connections).
type Store struct {
	mu      sync.RWMutex
	blocks  []*block
	n       int       // stored events
	sumRows int       // summary rows over all blocks
	flows   flowTable // flow → position+1 of its newest event

	// Replay dedup for the at-least-once delivery channel.
	seen       map[batchKey]struct{}
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

	// traceShard labels store-index spans with the owning fabric shard
	// (see SetTraceShard). Written once at setup, so unguarded.
	traceShard uint32
}

// NewStore returns an empty store; blocks are allocated on demand.
func NewStore() *Store {
	s := &Store{seen: make(map[batchKey]struct{}), detectToStore: obs.NewHistogram(obs.LatencyBuckets())}
	s.resetEvents()
	return s
}

// resetEvents drops every event, keeping the dedup state.
func (s *Store) resetEvents() {
	s.blocks, s.n, s.sumRows, s.flows = nil, 0, 0, flowTable{}
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
// positions, copied a block at a time and indexed from their bytes: the
// only writer of the columns, the flow chains and — a row lookup per
// block the run touches — the summaries.
func (s *Store) appendRun(sw uint16, ts int64, recs []byte) {
	for len(recs) > 0 {
		i := s.n % blockLen
		if i == 0 {
			s.blocks = append(s.blocks, &block{minTs: math.MaxInt64, maxTs: math.MinInt64})
		}
		b := s.blocks[len(s.blocks)-1]
		k := copy(b.rec[i*fevent.RecordLen:], recs) / fevent.RecordLen
		row := s.sumRow(b, sw)
		for j, r := i, recs; j < i+k; j, r = j+1, r[fevent.RecordLen:] {
			b.ts[j], b.sw[j], b.typ[j] = ts, sw, r[0]
			row.n[r[0]-1]++
			s.n++
			b.prev[j] = uint32(s.n) // the new head, swapped below for the old
		}
		s.flows.swapRun(recs[fevent.RecordFlowOff:], fevent.RecordLen, b.prev[i:i+k])
		b.minTs, b.maxTs = min(b.minTs, ts), max(b.maxTs, ts)
		b.n += k
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
	if p.Seq != 0 {
		k := batchKey{sw: p.SwitchID, seq: p.Seq}
		if _, dup := s.seen[k]; dup {
			s.dupBatches++
			return
		}
		s.seen[k] = struct{}{}
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

// SetTraceShard labels the store's spans with the owning fabric shard ID
// (0 for standalone collectors). Call before ingestion starts.
func (s *Store) SetTraceShard(id uint32) { s.traceShard = id }

// TraceExemplars returns the detect→store histogram's per-bucket latency
// exemplars: the last trace ID to land in each bucket.
func (s *Store) TraceExemplars() []obs.Exemplar {
	return s.detectToStore.Snapshot().Exemplars
}

// RegisterMetrics exposes the store's instruments on r: per-(type, switch)
// event counts, distinct-flow and dedup gauges, and the detection→store
// staleness histogram.
func (s *Store) RegisterMetrics(r *obs.Registry) {
	r.SamplesFunc(obs.MStoreEvents, "Events stored, by event type and reporting switch.",
		obs.KindCounter, func() []obs.Sample {
			s.mu.RLock()
			defer s.mu.RUnlock()
			var out []obs.Sample
			for k, n := range s.totals() {
				labels := []obs.Label{obs.L("type", k.t.String()), obs.L("switch", strconv.Itoa(int(k.sw)))}
				out = append(out, obs.Sample{Labels: labels, Value: float64(n)})
			}
			return out
		})
	r.GaugeFunc(obs.MStoreFlows, "Distinct flows with at least one stored event.", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(s.flows.n)
	})
	r.CounterFunc(obs.MStoreDupBatches, "Replayed batches dropped by (switch, seq) dedup.", func() float64 {
		return float64(s.DupBatches())
	})
	r.RegisterHistogram(obs.MDetectToStore, "Microseconds from event detection (switch clock) to storage; 0 for wire-delivered batches, whose records carry only the batch stamp.", s.detectToStore)
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
	_, ok := s.seen[batchKey{sw: sw, seq: seq}]
	return ok
}

// Resident cost of what the store holds, for admission control. A block
// is charged whole, when it is allocated, rounded up to the allocator's
// 8 KiB pages, and the flow table for every slot it has allocated; a
// summary row is charged twice its 16 B, the capacity of a slice that
// has just doubled, and a dedup map entry key + value + control byte at
// the load factor of a table that has just doubled, so the estimate errs
// high and admission control engages early, not late.
const (
	blockMemCost  = (blockLen*rowBytes + 48 + 8191) &^ 8191
	sumRowMemCost = 2 * 16
	seenMemCost   = 40
)

// MemoryBytes estimates the store's resident memory — the quantity the
// ingest server's admission watermarks are defined over.
func (s *Store) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.blocks))*blockMemCost + int64(s.sumRows)*sumRowMemCost +
		int64(len(s.flows.slots))*flowSlotBytes + int64(len(s.seen))*seenMemCost
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

// match tests event i of b, reading only the columns q names; inWindow
// says b lies wholly inside [since, until], so its stamps need no look.
func (q *selector) match(b *block, i int, inWindow bool) bool {
	return (!q.bySw || b.sw[i] == q.sw) && (q.typ == 0 || b.typ[i] == q.typ) &&
		(inWindow || b.ts[i] >= q.since && b.ts[i] <= q.until) &&
		(q.code == 0 || b.rec[i*fevent.RecordLen+fevent.RecordDropCodeOff] == q.code)
}

// visit calls fn(b, i) for every stored event matching f, in ingestion
// order, with s.mu held, and returns how many match: the store's only
// read path. A flow filter walks that flow's chain (newest first,
// replayed reversed), so a point lookup costs O(the flow's events).
// Anything else goes block by block: one whose [minTs, maxTs] misses
// [Since, Until], or whose summary holds no event of f's switch and type,
// is skipped; with a nil fn — a count — one lying inside the window is
// answered from its summary without reading an event; the rest (window
// edges, a drop code) are scanned column-wise.
func (s *Store) visit(f *Filter, fn func(b *block, i int)) int {
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
		for link := s.flows.get(key[:]); link != 0; {
			b, i := s.blocks[(link-1)/blockLen], int((link-1)%blockLen)
			if q.match(b, i, false) {
				total++
				if fn != nil {
					chain = append(chain, link-1)
				}
			}
			link = b.prev[i]
		}
		for k := len(chain) - 1; k >= 0; k-- {
			fn(s.blocks[chain[k]/blockLen], int(chain[k]%blockLen))
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
		inWindow := q.since <= b.minTs && b.maxTs <= q.until
		if fn == nil && inWindow && q.code == 0 {
			total += n
			continue
		}
		for i := 0; i < b.n; i++ {
			if q.match(b, i, inWindow) {
				total++
				if fn != nil {
					fn(b, i)
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
	s.visit(&f, func(b *block, i int) {
		out = append(out, fevent.Event{})
		b.load(i, &out[len(out)-1])
	})
	return out
}

// Count returns how many events match the filter, materialising none.
func (s *Store) Count(f Filter) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.visit(&f, nil)
}

// Flows returns the distinct flows with stored events.
func (s *Store) Flows() []pkt.FlowKey {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]pkt.FlowKey, 0, s.flows.n)
	for i := range s.flows.slots {
		if sl := &s.flows.slots[i]; sl.head != 0 {
			f, _ := pkt.FlowKeyFromWire(sl.key[:]) // 13 bytes always decode
			out = append(out, f)
		}
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
// the block summaries; distinct flows take a pass over the records' flow
// bytes.
func (s *Store) Summary() []SummaryRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	flowSets := make(map[swType]map[flowKey]struct{})
	s.visit(&Filter{}, func(b *block, i int) {
		k := swType{b.sw[i], fevent.Type(b.typ[i])}
		if flowSets[k] == nil {
			flowSets[k] = make(map[flowKey]struct{})
		}
		flowSets[k][flowKey(b.rec[i*fevent.RecordLen+fevent.RecordFlowOff:])] = struct{}{}
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
	s.visit(&Filter{Flow: &flow, Type: fevent.TypePathChange}, func(b *block, i int) {
		b.load(i, &e)
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
	s.visit(&f, func(b *block, i int) {
		b.load(i, &e)
		h.Observe(float64(e.QueueLatencyUs))
	})
	return h.Snapshot()
}

// Reset clears the store.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetEvents()
	s.seen = make(map[batchKey]struct{})
	s.dupBatches = 0
}
