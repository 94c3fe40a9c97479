package obs

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

func TestNewHistogramPanics(t *testing.T) {
	for name, bounds := range map[string][]float64{
		"empty":    {},
		"unsorted": {1, 3, 2},
		"equal":    {1, 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s bounds: expected panic", name)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}

func TestLatencyBuckets(t *testing.T) {
	b := LatencyBuckets()
	if len(b) != 93 || b[0] != 1 || b[len(b)-1] != 1<<23 {
		t.Fatalf("unexpected bucket layout: %v", b)
	}
	for i, v := range b {
		// A multiple of 0.25 is exact in binary, so le labels print short.
		if v*4 != math.Trunc(v*4) {
			t.Fatalf("bound %d: %v is not a whole multiple of 0.25", i, v)
		}
		if i > 0 && (v <= b[i-1] || v > 1.25*b[i-1]) {
			t.Fatalf("bound %d: step %v -> %v is outside (1, 1.25]", i, b[i-1], v)
		}
	}
}

// TestLatencyQuantileResolution: over the whole range of the latency
// layout a quantile read off the histogram is within 12.5 % of the exact
// nearest-rank answer, at every sample size from one up, and never
// decreases as q rises.
func TestLatencyQuantileResolution(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, n := range []int{1, 2, 10, 1000, 100000} {
		h := NewHistogram(LatencyBuckets())
		samples := make([]float64, n)
		for i := range samples {
			samples[i] = math.Exp2(23 * rng.Float64()) // log-uniform in [1, 2^23] µs
			h.Observe(samples[i])
		}
		sort.Float64s(samples)
		s := h.Snapshot()
		prev := 0.0
		for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
			exact := samples[int(math.Ceil(q*float64(n)))-1]
			got := s.Quantile(q)
			if math.Abs(got-exact) > 0.125*exact {
				t.Errorf("n=%d Quantile(%v) = %v, exact %v: off by %.1f %%", n, q, got, exact, 100*math.Abs(got-exact)/exact)
			}
			if got < prev {
				t.Errorf("n=%d Quantile(%v) = %v is below a lower quantile's %v", n, q, got, prev)
			}
			prev = got
		}
	}
}

// TestBucketIdxMatchesLinearScan holds the binary search to the linear
// le scan it replaced, on and either side of every bound and beyond both
// ends of the layout.
func TestBucketIdxMatchesLinearScan(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	scan := func(v float64) int {
		i := 0
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
		return i
	}
	vals := []float64{0, -3, 1e12}
	for _, b := range h.bounds {
		vals = append(vals, b, math.Nextafter(b, math.Inf(-1)), math.Nextafter(b, math.Inf(1)))
	}
	for _, v := range vals {
		if got, want := h.bucketIdx(v), scan(v); got != want {
			t.Errorf("bucketIdx(%v) = %d, linear scan %d", v, got, want)
		}
	}
}

func TestHistogramObserveSnapshot(t *testing.T) {
	h := NewHistogram([]float64{1, 10, 100})
	for _, v := range []float64{0.5, 5, 50, 500} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("Count = %d, want 4", h.Count())
	}
	s := h.Snapshot()
	want := []uint64{1, 1, 1, 1}
	for i, n := range want {
		if s.Counts[i] != n {
			t.Fatalf("bucket %d = %d, want %d (counts %v)", i, s.Counts[i], n, s.Counts)
		}
	}
	if s.Sum != 555.5 || s.Min != 0.5 || s.Max != 500 {
		t.Fatalf("sum/min/max = %v/%v/%v", s.Sum, s.Min, s.Max)
	}
	if got := s.Mean(); math.Abs(got-555.5/4) > 1e-9 {
		t.Fatalf("Mean = %v", got)
	}
	// A value exactly on a bound lands in that bound's bucket (le semantics).
	h2 := NewHistogram([]float64{1, 10})
	h2.Observe(10)
	if s2 := h2.Snapshot(); s2.Counts[1] != 1 {
		t.Fatalf("boundary value mis-bucketed: %v", s2.Counts)
	}
}

func TestHistogramQuantileContract(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16}
	tests := []struct {
		name   string
		values []float64
		q      float64
		want   float64
	}{
		{"empty returns 0", nil, 0.5, 0},
		{"empty q=0 returns 0", nil, 0, 0},
		{"single q=0.5 clamps to the one value", []float64{3}, 0.5, 3},
		{"single q<=0 returns min", []float64{3}, 0, 3},
		{"single q>=1 returns max", []float64{3}, 1, 3},
		{"two elements q<=0 returns min", []float64{3, 7}, -1, 3},
		{"two elements q>=1 returns max", []float64{3, 7}, 2, 7},
		{"estimates never exceed max", []float64{3, 3, 3}, 0.99, 3},
		{"estimates never undercut min", []float64{7, 7, 7}, 0.01, 7},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram(bounds)
			for _, v := range tc.values {
				h.Observe(v)
			}
			if got := h.Quantile(tc.q); got != tc.want {
				t.Fatalf("Quantile(%v) = %v, want %v", tc.q, got, tc.want)
			}
		})
	}
	// Interpolated estimates stay within [Min, Max] on spread samples.
	h := NewHistogram(bounds)
	for _, v := range []float64{1.5, 3, 6, 12} {
		h.Observe(v)
	}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := h.Quantile(q)
		if got < 1.5 || got > 12 {
			t.Fatalf("Quantile(%v) = %v outside observed [1.5, 12]", q, got)
		}
	}
	// Overflow bucket: estimate is clamped by the observed max.
	ho := NewHistogram([]float64{1})
	ho.Observe(1000)
	if got := ho.Quantile(0.5); got != 1000 {
		t.Fatalf("overflow Quantile = %v, want 1000", got)
	}
}

// TestHistogramExemplarContract extends the shared quantile-contract
// suite with the exemplar contract: an empty bucket has no exemplar, an
// exemplar's value always lies within its bucket's bounds, and
// concurrent/successive traced observations resolve last-write-wins.
func TestHistogramExemplarContract(t *testing.T) {
	bounds := []float64{1, 2, 4, 8, 16}
	t.Run("empty bucket has no exemplar", func(t *testing.T) {
		h := NewHistogram(bounds)
		if s := h.Snapshot(); s.Exemplars != nil {
			t.Fatalf("empty histogram carries exemplars: %+v", s.Exemplars)
		}
		// An untraced observation must not create an exemplar either.
		h.Observe(3)
		h.ObserveTrace(5, 0)
		if s := h.Snapshot(); s.Exemplars != nil {
			t.Fatalf("untraced observations created exemplars: %+v", s.Exemplars)
		}
	})
	t.Run("exemplar within bucket bounds", func(t *testing.T) {
		h := NewHistogram(bounds)
		for i, v := range []float64{0.5, 1.5, 3, 6, 12, 100} {
			h.ObserveTrace(v, uint64(i+1))
		}
		s := h.Snapshot()
		if s.Exemplars == nil {
			t.Fatal("no exemplars recorded")
		}
		for i, e := range s.Exemplars {
			if e.TraceID == 0 {
				if s.Counts[i] != 0 {
					t.Fatalf("bucket %d observed but has no exemplar", i)
				}
				continue
			}
			lo := math.Inf(-1)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := math.Inf(1)
			if i < len(bounds) {
				hi = bounds[i]
			}
			if e.Value <= lo || e.Value > hi {
				t.Fatalf("bucket %d exemplar %v outside (%v, %v]", i, e.Value, lo, hi)
			}
		}
	})
	t.Run("last write wins", func(t *testing.T) {
		h := NewHistogram(bounds)
		h.ObserveTrace(3, 101)
		h.ObserveTrace(3.5, 202)
		s := h.Snapshot()
		i := 2 // (2, 4] bucket
		if e := s.Exemplars[i]; e.TraceID != 202 || e.Value != 3.5 {
			t.Fatalf("bucket %d exemplar = %+v, want trace 202 value 3.5", i, e)
		}
	})
	t.Run("merge adopts other's exemplars", func(t *testing.T) {
		a, b := NewHistogram(bounds), NewHistogram(bounds)
		a.ObserveTrace(3, 1)
		a.ObserveTrace(10, 2)
		b.ObserveTrace(3, 9) // newer from the merger's point of view
		s := a.Snapshot()
		s.Merge(b.Snapshot())
		if s.Exemplars[2].TraceID != 9 {
			t.Fatalf("merge kept stale exemplar: %+v", s.Exemplars[2])
		}
		if s.Exemplars[4].TraceID != 2 {
			t.Fatalf("merge lost an exemplar only one side held: %+v", s.Exemplars[4])
		}
		// Merging exemplars into an exemplar-free snapshot allocates them.
		plain := NewHistogram(bounds).Snapshot()
		plain.Count = 1 // force the merge path
		plain.Merge(s)
		if plain.Exemplars == nil || plain.Exemplars[2].TraceID != 9 {
			t.Fatalf("merge into exemplar-free snapshot: %+v", plain.Exemplars)
		}
	})
	t.Run("observe trace is allocation free", func(t *testing.T) {
		h := NewHistogram(bounds)
		if n := testing.AllocsPerRun(1000, func() { h.ObserveTrace(3, 7) }); n != 0 {
			t.Fatalf("ObserveTrace allocates %v", n)
		}
	})
}

// TestObserveNEqualsRepeatedObserve: n observations at once leave the
// histogram exactly as n single ones do, exemplar included, and n = 0
// leaves it unchanged.
func TestObserveNEqualsRepeatedObserve(t *testing.T) {
	one, many := NewHistogram(LatencyBuckets()), NewHistogram(LatencyBuckets())
	for _, o := range []struct {
		v     float64
		n, id uint64
	}{{3, 5, 0}, {0, 1, 7}, {900, 33, 9}, {1e9, 2, 0}, {42, 0, 11}} {
		for i := uint64(0); i < o.n; i++ {
			one.ObserveTrace(o.v, o.id)
		}
		many.ObserveN(o.v, o.n, o.id)
	}
	if a, b := one.Snapshot(), many.Snapshot(); !reflect.DeepEqual(a, b) {
		t.Fatalf("ObserveN diverged from repeated Observe:\n one  %+v\n many %+v", a, b)
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 10})
	b := NewHistogram([]float64{1, 10})
	a.Observe(0.5)
	b.Observe(5)
	b.Observe(50)
	s := a.Snapshot()
	s.Merge(b.Snapshot())
	if s.Count != 3 || s.Sum != 55.5 || s.Min != 0.5 || s.Max != 50 {
		t.Fatalf("merged: count=%d sum=%v min=%v max=%v", s.Count, s.Sum, s.Min, s.Max)
	}
	// Merging an empty snapshot is a no-op even with a nil layout.
	s.Merge(HistogramSnapshot{})
	if s.Count != 3 {
		t.Fatalf("empty merge changed count: %d", s.Count)
	}
	// Mismatched layouts panic rather than mis-bucket.
	other := NewHistogram([]float64{1})
	other.Observe(2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on layout mismatch")
		}
	}()
	s.Merge(other.Snapshot())
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram([]float64{1, 10})
	if got := h.Snapshot().String(); got != "empty" {
		t.Fatalf("empty String = %q", got)
	}
	h.Observe(5)
	got := h.Snapshot().String()
	if !strings.Contains(got, "n=1") || !strings.Contains(got, "p99=") {
		t.Fatalf("String = %q", got)
	}
}

func TestSparkline(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	if h.Snapshot().Sparkline(10) != "" {
		t.Error("empty sparkline should be empty")
	}
	for v := 1; v <= 1000; v++ {
		h.Observe(float64(v))
	}
	s := h.Snapshot().Sparkline(16)
	if len([]rune(s)) != 16 {
		t.Errorf("sparkline width = %d runes (%q)", len([]rune(s)), s)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := NewHistogram(LatencyBuckets())
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.Observe(float64(i % 100))
				_ = h.Snapshot()
			}
		}()
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != 8000 {
		t.Fatalf("Count = %d, want 8000", s.Count)
	}
	var n uint64
	for _, c := range s.Counts {
		n += c
	}
	if n != 8000 {
		t.Fatalf("bucket sum = %d, want 8000", n)
	}
}
