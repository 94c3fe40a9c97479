// Package collector implements NetSeer's backend: an event store that
// ingests batches from switch CPUs (in-process or over TCP with
// length-prefixed frames) and answers the queries of §3.2 — by flow, by
// event type, by device, or by time window.
package collector

import (
	"math"
	"sort"
	"strconv"
	"sync"

	"netseer/internal/metrics"
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
// pointer-free columns. rec is the 24 B record the wire, the WAL and the
// snapshot carry; sw and typ repeat two of its fields so a filtered scan
// reads 3 B an event, not 24. prev chains each event to the previous
// event of its flow, as position+1 (0 = none), across blocks.
type block struct {
	n            int // events held; only the last block is partial
	minTs, maxTs int64
	ts           [blockLen]int64
	prev         [blockLen]uint32
	sw           [blockLen]uint16
	typ          [blockLen]uint8
	rec          [blockLen * fevent.RecordLen]byte
}

// load materialises event i; types are validated on every way in, so the
// record always decodes.
func (b *block) load(i int, e *fevent.Event) {
	_ = e.DecodeRecord(b.rec[i*fevent.RecordLen:])
	e.SwitchID, e.Timestamp = b.sw[i], sim.Time(b.ts[i])
}

// typeRow counts one switch's stored events by type.
type typeRow [fevent.TypeAggSpike + 1]uint64

// Store is an in-memory event store: append-only blocks in ingestion
// order plus a flow → newest-event table, O(flows) not O(events). The
// 4 B chain link caps it at 2³²−1 events (168 GB of blocks; -mem-budget
// sheds long before). It is safe for concurrent use (the TCP server
// ingests from multiple switch connections).
type Store struct {
	mu     sync.RWMutex
	blocks []*block
	n      int       // stored events
	flows  flowTable // flow → position+1 of its newest event

	// Replay dedup for the at-least-once delivery channel.
	seen       map[batchKey]struct{}
	dupBatches uint64

	// counts holds stored events per switch and type, for the
	// netseer_store_events_total exposition and CountByType.
	counts map[uint16]*typeRow

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
	s.blocks, s.n, s.flows = nil, 0, flowTable{}
	s.counts = make(map[uint16]*typeRow)
}

// countRow returns the per-type counts of switch sw, creating the row.
func (s *Store) countRow(sw uint16) *typeRow {
	row := s.counts[sw]
	if row == nil {
		row = new(typeRow)
		s.counts[sw] = row
	}
	return row
}

// appendRun stores a run of records — n × fevent.RecordLen bytes with
// valid type bytes, all reported by switch sw at ts — at the next
// positions, copied a block at a time and indexed from their bytes: the
// only writer of the columns, the flow chains and the counts.
func (s *Store) appendRun(sw uint16, ts int64, recs []byte) {
	if len(recs) == 0 {
		return
	}
	row := s.countRow(sw)
	for len(recs) > 0 {
		i := s.n % blockLen
		if i == 0 {
			s.blocks = append(s.blocks, &block{minTs: math.MaxInt64, maxTs: math.MinInt64})
		}
		b := s.blocks[len(s.blocks)-1]
		k := copy(b.rec[i*fevent.RecordLen:], recs) / fevent.RecordLen
		for j, r := i, recs; j < i+k; j, r = j+1, r[fevent.RecordLen:] {
			b.ts[j], b.sw[j], b.typ[j] = ts, sw, r[0]
			row[r[0]]++
			s.n++
			b.prev[j] = s.flows.swap(r[fevent.RecordFlowOff:fevent.RecordFlowOff+pkt.FlowKeyLen], uint32(s.n))
		}
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
			for sw, row := range s.counts {
				for t, n := range row {
					if n != 0 {
						labels := []obs.Label{obs.L("type", fevent.Type(t).String()), obs.L("switch", strconv.Itoa(int(sw)))}
						out = append(out, obs.Sample{Labels: labels, Value: float64(n)})
					}
				}
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
// dedup map entry is key + value + control byte at the load factor of a
// table that has just doubled, so the estimate errs high and admission
// control engages early, not late.
const (
	blockMemCost = (blockLen*rowBytes + 24 + 8191) &^ 8191
	seenMemCost  = 40
)

// MemoryBytes estimates the store's resident memory — the quantity the
// ingest server's admission watermarks are defined over.
func (s *Store) MemoryBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return int64(len(s.blocks))*blockMemCost + int64(len(s.flows.slots))*flowSlotBytes + int64(len(s.seen))*seenMemCost
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

// visit calls fn(b, i) for every stored event matching f, in ingestion
// order, with s.mu held: the store's only read path. A flow filter walks
// that flow's chain (newest first, replayed reversed), so a point lookup
// costs O(the flow's events); anything else scans the columns block by
// block, skipping blocks whose [minTs, maxTs] misses [Since, Until].
func (s *Store) visit(f *Filter, fn func(b *block, i int)) {
	since, until := int64(f.Since), int64(f.Until)
	if until == 0 {
		until = math.MaxInt64
	}
	match := func(b *block, i int) bool {
		return (f.SwitchID == nil || b.sw[i] == *f.SwitchID) &&
			(f.Type == 0 || b.typ[i] == uint8(f.Type)) &&
			b.ts[i] >= since && b.ts[i] <= until &&
			(f.DropCode == fevent.DropNone || b.typ[i] == uint8(fevent.TypeDrop) &&
				b.rec[i*fevent.RecordLen+fevent.RecordDropCodeOff] == byte(f.DropCode))
	}
	if f.Flow != nil {
		var buf [64]uint32 // most chains fit: no heap for a point lookup
		chain := buf[:0]
		var key flowKey
		f.Flow.PutWire(key[:])
		for link := s.flows.get(key[:]); link != 0; {
			b, i := s.blocks[(link-1)/blockLen], int((link-1)%blockLen)
			if match(b, i) {
				chain = append(chain, link-1)
			}
			link = b.prev[i]
		}
		for k := len(chain) - 1; k >= 0; k-- {
			fn(s.blocks[chain[k]/blockLen], int(chain[k]%blockLen))
		}
		return
	}
	for _, b := range s.blocks {
		if b.maxTs < since || b.minTs > until {
			continue
		}
		for i := 0; i < b.n; i++ {
			if match(b, i) {
				fn(b, i)
			}
		}
	}
}

// Query returns all events matching the filter in ingestion order.
func (s *Store) Query(f Filter) []fevent.Event {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []fevent.Event
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
	n := 0
	s.visit(&f, func(*block, int) { n++ })
	return n
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

// CountByType returns event counts per type.
func (s *Store) CountByType() map[fevent.Type]int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[fevent.Type]int)
	for _, row := range s.counts {
		for t, n := range row {
			if n != 0 {
				out[fevent.Type(t)] += int(n)
			}
		}
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
// first look at where the network is misbehaving.
func (s *Store) Summary() []SummaryRow {
	s.mu.RLock()
	defer s.mu.RUnlock()
	type key struct {
		sw uint16
		t  fevent.Type
	}
	counts := make(map[key]int)
	flowSets := make(map[key]map[pkt.FlowKey]struct{})
	var e fevent.Event
	s.visit(&Filter{}, func(b *block, i int) {
		b.load(i, &e)
		k := key{e.SwitchID, e.Type}
		counts[k]++
		if flowSets[k] == nil {
			flowSets[k] = make(map[pkt.FlowKey]struct{})
		}
		flowSets[k][e.Flow] = struct{}{}
	})
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

// LatencyHistogram aggregates the queue-latency (µs) of stored congestion
// events into a log-bucketed histogram, optionally restricted to one
// switch (nil = all).
func (s *Store) LatencyHistogram(switchID *uint16) *metrics.Histogram {
	s.mu.RLock()
	defer s.mu.RUnlock()
	h := metrics.NewHistogram()
	var e fevent.Event
	s.visit(&Filter{SwitchID: switchID, Type: fevent.TypeCongestion}, func(b *block, i int) {
		b.load(i, &e)
		h.Observe(float64(e.QueueLatencyUs))
	})
	return h
}

// Reset clears the store.
func (s *Store) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.resetEvents()
	s.seen = make(map[batchKey]struct{})
	s.dupBatches = 0
}
