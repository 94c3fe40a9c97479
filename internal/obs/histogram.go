package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
	"unsafe"
)

// Histogram is a lock-free fixed-bucket histogram, the only one in the
// repo. Bucket boundaries are chosen at construction, so Observe is a
// binary search plus a few atomic adds — no allocation, no lock — and
// histograms sharing bounds can be merged sample-exactly, which the
// registry uses to aggregate the same instrument across pipeline
// instances. It is safe for concurrent Observe/Snapshot.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; the implicit last bucket is +Inf
	buckets []atomic.Uint64
	ex      []exemplarSlot // one per bucket: last traced observation
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
	minBits atomic.Uint64 // float64 bits; +Inf until the first Observe
	maxBits atomic.Uint64 // float64 bits; -Inf until the first Observe
}

// exemplarSlot holds one bucket's exemplar as two independent atomics.
// The pair is deliberately not read-consistent: a torn read mixes two
// observations that landed in the *same bucket*, so the value still lies
// within the bucket's bounds and the trace ID still points at a trace
// that visited it — good enough for a diagnostic link, and it keeps
// ObserveTrace at two plain stores (last-write-wins).
type exemplarSlot struct {
	valBits atomic.Uint64 // float64 bits of the observed value
	trace   atomic.Uint64 // trace ID; 0 = no exemplar yet
}

// Exemplar links a histogram bucket to the last traced observation that
// landed in it. A zero TraceID means the bucket has no exemplar.
type Exemplar struct {
	TraceID uint64
	Value   float64
}

// LatencyBuckets returns the canonical latency bounds in microseconds:
// four linear steps an octave — 1, 1.25, 1.5, 1.75 × 2^k — from 1 µs to
// 2^23 µs (~8.4 s), 93 bounds. Adjacent bounds differ by at most 1.25×,
// so a bucket midpoint is within 12.5 % of any value in the bucket, and
// every bound is a multiple of 0.25: exact in binary, so its le label
// prints short. All of NetSeer's latency histograms share them so
// detection→CPU, ack, detection→store and queue-latency distributions
// merge and compare directly.
func LatencyBuckets() []float64 {
	b := make([]float64, 0, 93)
	for octave := 1.0; octave < 1<<23; octave *= 2 {
		b = append(b, octave, 1.25*octave, 1.5*octave, 1.75*octave)
	}
	return append(b, 1<<23)
}

// NewHistogram creates a histogram with the given ascending upper bounds.
// Panics on empty or unsorted bounds: a histogram that cannot place values
// would silently distort every latency report built on it.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	h := &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
		ex:      make([]exemplarSlot, len(bounds)+1),
	}
	h.minBits.Store(math.Float64bits(math.Inf(1)))
	h.maxBits.Store(math.Float64bits(math.Inf(-1)))
	return h
}

// bucketIdx returns the bucket index v lands in (le semantics; the last
// index is the +Inf overflow bucket).
func (h *Histogram) bucketIdx(v float64) int { return sort.SearchFloat64s(h.bounds, v) }

// Observe records one value. It is allocation-free and safe for
// concurrent use.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1, 0) }

// ObserveTrace records one value and, when traceID is non-zero, stamps
// it as the bucket's exemplar (last-write-wins). This is how the p99
// bucket of a latency histogram stays linked to a reconstructable trace
// even for batches head-sampling skipped. Allocation-free.
func (h *Histogram) ObserveTrace(v float64, traceID uint64) { h.ObserveN(v, 1, traceID) }

// ObserveN records n observations of the same value — a run of equal
// readings, or one reading that stands for n items (the n frames one
// cumulative ack covers) — at the cost of one: every per-item caller
// above is this with n = 1. n = 0 records nothing.
func (h *Histogram) ObserveN(v float64, n, traceID uint64) {
	if n == 0 {
		return
	}
	i := h.bucketIdx(v)
	h.buckets[i].Add(n)
	if traceID != 0 {
		h.ex[i].valBits.Store(math.Float64bits(v))
		h.ex[i].trace.Store(traceID)
	}
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+add)) {
			break
		}
	}
	for {
		old := h.minBits.Load()
		if v >= math.Float64frombits(old) || h.minBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
	for {
		old := h.maxBits.Load()
		if v <= math.Float64frombits(old) || h.maxBits.CompareAndSwap(old, math.Float64bits(v)) {
			break
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot copies the histogram's current state. Concurrent Observes may
// land between field reads; the snapshot is internally consistent enough
// MemoryBytes is what h holds: its struct and its bounds, bucket and
// exemplar arrays.
func (h *Histogram) MemoryBytes() int64 {
	return int64(unsafe.Sizeof(*h)) + int64(len(h.bounds)+len(h.buckets))*8 +
		int64(len(h.ex))*int64(unsafe.Sizeof(exemplarSlot{}))
}

// for reporting (bucket counts are each read once, monotonic).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.buckets)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
		Min:    math.Float64frombits(h.minBits.Load()),
		Max:    math.Float64frombits(h.maxBits.Load()),
	}
	for i := range h.buckets {
		s.Counts[i] = h.buckets[i].Load()
	}
	for i := range h.ex {
		if id := h.ex[i].trace.Load(); id != 0 {
			if s.Exemplars == nil {
				s.Exemplars = make([]Exemplar, len(h.buckets))
			}
			s.Exemplars[i] = Exemplar{
				TraceID: id,
				Value:   math.Float64frombits(h.ex[i].valBits.Load()),
			}
		}
	}
	return s
}

// Quantile is Snapshot().Quantile(q).
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// HistogramSnapshot is a point-in-time copy of a Histogram, also the unit
// the registry gathers and a HistogramFunc merges across instances.
type HistogramSnapshot struct {
	// Bounds are the ascending upper bounds; Counts has len(Bounds)+1
	// entries, the last being the overflow (+Inf) bucket.
	Bounds []float64
	Counts []uint64
	// Exemplars, when non-nil, has one entry per bucket: the last traced
	// observation that landed there (zero TraceID = none). Nil when no
	// bucket has an exemplar.
	Exemplars []Exemplar
	Count     uint64
	Sum       float64
	Min       float64 // +Inf when empty
	Max       float64 // -Inf when empty
}

// Merge adds other's observations into s. Both snapshots must share
// bounds (they do when both derive from the same bucket layout, e.g.
// LatencyBuckets); mismatched layouts panic rather than mis-bucket.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	if other.Count == 0 {
		return
	}
	if len(s.Counts) != len(other.Counts) {
		panic("obs: merging histogram snapshots with different bucket layouts")
	}
	for i, n := range other.Counts {
		s.Counts[i] += n
	}
	// Exemplar merge follows last-write-wins: other's exemplars are newer
	// from the merging scraper's point of view, so any bucket other has
	// an exemplar for adopts it.
	if other.Exemplars != nil {
		if s.Exemplars == nil {
			s.Exemplars = make([]Exemplar, len(s.Counts))
		}
		for i, e := range other.Exemplars {
			if e.TraceID != 0 {
				s.Exemplars[i] = e
			}
		}
	}
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Min < s.Min {
		s.Min = other.Min
	}
	if other.Max > s.Max {
		s.Max = other.Max
	}
}

// Mean returns the arithmetic mean (0 when empty).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile as the midpoint of the bucket the
// nearest-rank sample lies in, under the contract exact nearest-rank
// (metrics.Percentile) also keeps: 0 for an empty histogram; q <= 0
// returns Min, q >= 1 returns Max; estimates are clamped to [Min, Max],
// so small samples cannot report values outside the observed range.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	target := uint64(math.Ceil(q * float64(s.Count)))
	if target < 1 {
		target = 1
	}
	var acc uint64
	for i, n := range s.Counts {
		acc += n
		if acc < target {
			continue
		}
		lo := s.Min
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Max
		if i < len(s.Bounds) && s.Bounds[i] < hi {
			hi = s.Bounds[i]
		}
		if lo > hi {
			lo = hi
		}
		est := lo + (hi-lo)/2
		return clamp(est, s.Min, s.Max)
	}
	return s.Max
}

// String renders count/mean/p50/p99/max on one line.
func (s HistogramSnapshot) String() string {
	if s.Count == 0 {
		return "empty"
	}
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f max=%.1f",
		s.Count, s.Mean(), s.Quantile(0.5), s.Quantile(0.99), s.Max)
}

// Sparkline renders the distribution as a compact bar chart, width
// columns over the occupied bucket range (for fetquery/terminal output).
func (s HistogramSnapshot) Sparkline(width int) string {
	if s.Count == 0 || width <= 0 {
		return ""
	}
	lo, hi := 0, len(s.Counts)-1 // Count > 0: some bucket is occupied
	for s.Counts[lo] == 0 {
		lo++
	}
	for s.Counts[hi] == 0 {
		hi--
	}
	span := hi - lo + 1
	cols := make([]uint64, width)
	var peak uint64
	for i := lo; i <= hi; i++ {
		col := (i - lo) * width / span
		cols[col] += s.Counts[i]
		if cols[col] > peak {
			peak = cols[col]
		}
	}
	levels := []rune(" ▁▂▃▄▅▆▇█")
	var sb strings.Builder
	for _, n := range cols {
		sb.WriteRune(levels[int(math.Round(float64(n)/float64(peak)*float64(len(levels)-1)))])
	}
	return sb.String()
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
