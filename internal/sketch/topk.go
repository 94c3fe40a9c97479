package sketch

import "netseer/internal/pkt"

// TopK is a space-saving top-K table (Metwally et al., the sequential
// counterpart of HashPipe's pipelined layout): exactly K counters. A
// resident flow's counter increments in place; a missing flow evicts the
// current minimum and takes over its counter, inheriting the evicted
// value as its overestimation bound (err).
//
// Deterministic guarantees, pinned by property tests and the oracle:
//
//   - count is an overestimate: true ≤ count, and count − err ≤ true, so
//     err (always ≤ the minimum counter at entry time) bounds the error.
//   - any flow with true count > N/K is resident when the stream ends —
//     the min counter never exceeds N/K, so such a flow can never be the
//     victim once it is in, and its own packets put it in.
//
// Lookup is a linear scan guarded by a 32-bit hash compare; K is small
// (tens) by the match-action memory budget, so the scan stays cheap and
// the table needs no secondary index.
type TopK struct {
	entries []tkEntry
	n       int
	total   uint64
}

type tkEntry struct {
	hash  uint32
	flow  pkt.FlowKey
	count uint64
	err   uint64
}

// NewTopK returns a table with exactly k counters. Panics if k <= 0.
func NewTopK(k int) *TopK {
	if k <= 0 {
		panic("sketch: top-K size must be positive")
	}
	return &TopK{entries: make([]tkEntry, k)}
}

// Offer counts one packet of flow (with its pre-computed CRC-32C hash)
// and reports the flow's resulting counter and error bound. evicted is
// true when the flow entered by displacing the current minimum — the
// "churn" the Stage turns into TypeTopKChurn events.
func (t *TopK) Offer(flow pkt.FlowKey, hash uint32) (count, err uint64, evicted bool) {
	t.total++
	for i := 0; i < t.n; i++ {
		e := &t.entries[i]
		if e.hash == hash && e.flow == flow {
			e.count++
			return e.count, e.err, false
		}
	}
	if t.n < len(t.entries) {
		t.entries[t.n] = tkEntry{hash: hash, flow: flow, count: 1}
		t.n++
		return 1, 0, false
	}
	// Space-saving eviction: replace the minimum, inherit its counter as
	// the new entry's error bound.
	min := 0
	for i := 1; i < t.n; i++ {
		if t.entries[i].count < t.entries[min].count {
			min = i
		}
	}
	m := t.entries[min].count
	t.entries[min] = tkEntry{hash: hash, flow: flow, count: m + 1, err: m}
	return m + 1, m, true
}

// Len returns the number of occupied counters.
func (t *TopK) Len() int { return t.n }

// K returns the table capacity.
func (t *TopK) K() int { return len(t.entries) }

// Entry returns the i-th resident flow with its counter and error bound.
// Order is table order, not rank order.
func (t *TopK) Entry(i int) (flow pkt.FlowKey, count, err uint64) {
	e := &t.entries[i]
	return e.flow, e.count, e.err
}

// Min returns the smallest resident counter (0 when the table is not yet
// full) — the bound every entry's err respects.
func (t *TopK) Min() uint64 {
	if t.n < len(t.entries) {
		return 0
	}
	m := t.entries[0].count
	for i := 1; i < t.n; i++ {
		if t.entries[i].count < m {
			m = t.entries[i].count
		}
	}
	return m
}

// Total returns the stream length N (number of offers), the N of the N/K
// residency guarantee.
func (t *TopK) Total() uint64 { return t.total }

// MemoryBytes reports the SRAM footprint of the counter array, for the
// memory-budget accounting in DESIGN.md §13.
func (t *TopK) MemoryBytes() int { return len(t.entries) * (4 + pkt.FlowKeyLen + 8 + 8) }
