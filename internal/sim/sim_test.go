package sim

import (
	"fmt"
	"testing"
	"testing/quick"
)

func TestScheduleOrdering(t *testing.T) {
	s := New()
	var got []int
	s.Schedule(30, func() { got = append(got, 3) })
	s.Schedule(10, func() { got = append(got, 1) })
	s.Schedule(20, func() { got = append(got, 2) })
	s.RunAll()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("execution order = %v, want %v", got, want)
		}
	}
	if s.Now() != 30 {
		t.Errorf("Now() = %v, want 30", s.Now())
	}
}

func TestFIFOAtSameInstant(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-instant events out of FIFO order: %v", got)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.Schedule(10, func() {
		times = append(times, s.Now())
		s.Schedule(5, func() {
			times = append(times, s.Now())
		})
	})
	s.RunAll()
	if len(times) != 2 || times[0] != 10 || times[1] != 15 {
		t.Fatalf("nested times = %v, want [10 15]", times)
	}
}

func TestRunUntilHorizon(t *testing.T) {
	s := New()
	ran := 0
	s.Schedule(10, func() { ran++ })
	s.Schedule(100, func() { ran++ })
	end := s.Run(50)
	if ran != 1 {
		t.Errorf("ran %d events, want 1", ran)
	}
	if end != 50 || s.Now() != 50 {
		t.Errorf("Run returned %v, want 50", end)
	}
	// Event exactly at the horizon runs.
	s.Schedule(50, func() { ran++ }) // at absolute t=100... relative to now=50
	s.Run(100)
	if ran != 3 {
		t.Errorf("after second run, ran = %d, want 3", ran)
	}
}

func TestHorizonInclusive(t *testing.T) {
	s := New()
	ran := false
	s.At(100, func() { ran = true })
	s.Run(100)
	if !ran {
		t.Error("event exactly at horizon did not run")
	}
}

func TestCancel(t *testing.T) {
	s := New()
	ran := false
	h := s.Schedule(10, func() { ran = true })
	if !s.Cancel(h) {
		t.Fatal("Cancel returned false for pending event")
	}
	if s.Cancel(h) {
		t.Fatal("second Cancel returned true")
	}
	s.RunAll()
	if ran {
		t.Error("canceled event ran")
	}
}

func TestCancelZeroHandle(t *testing.T) {
	s := New()
	if s.Cancel(Handle{}) {
		t.Error("Cancel of zero handle returned true")
	}
}

func TestCancelOneOfMany(t *testing.T) {
	s := New()
	var got []int
	var hs []Handle
	for i := 0; i < 5; i++ {
		i := i
		hs = append(hs, s.Schedule(Time(i+1), func() { got = append(got, i) }))
	}
	s.Cancel(hs[2])
	s.RunAll()
	want := []int{0, 1, 3, 4}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("At in the past did not panic")
		}
	}()
	s := New()
	s.Schedule(10, func() {
		s.At(5, func() {})
	})
	s.RunAll()
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	New().Schedule(-1, func() {})
}

func TestProcessedCount(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.Schedule(Time(i), func() {})
	}
	s.RunAll()
	if s.Processed() != 7 {
		t.Errorf("Processed() = %d, want 7", s.Processed())
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{Second, "1.000000s"},
		{0, "0ns"},
		{-5, "-5ns"},
		{1999, "1.999us"},
		{2*Millisecond - 1, "2.000ms"},
		{1500500, "1.501ms"}, // half rounds up
		{1500499, "1.500ms"},
		{Second - 1, "1000.000ms"},
		{MaxTime, "9223372036.854776s"},
		{1234567890123, "1234.567890s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
		if got := string(c.t.AppendTo([]byte("t="))); got != "t="+c.want {
			t.Errorf("(%d).AppendTo = %q, want %q", int64(c.t), got, "t="+c.want)
		}
	}
}

// TestTimeStringMatchesFloatFormat holds the integer rendering to the
// %.Nf rendering it replaced, away from exact halves (where a float's
// binary neighbour decided the last digit).
func TestTimeStringMatchesFloatFormat(t *testing.T) {
	r := NewStream(7, "time-string")
	for i := 0; i < 20000; i++ {
		v := Time(r.Uint64() >> (11 + r.Intn(40)))
		if v%1000 == 500 {
			continue
		}
		var want string
		switch {
		case v >= Second:
			want = fmt.Sprintf("%.6fs", v.Seconds())
		case v >= Millisecond:
			want = fmt.Sprintf("%.3fms", float64(v)/float64(Millisecond))
		case v >= Microsecond:
			want = fmt.Sprintf("%.3fus", float64(v)/float64(Microsecond))
		default:
			want = fmt.Sprintf("%dns", int64(v))
		}
		if got := v.String(); got != want {
			t.Fatalf("(%d).String() = %q, want %q", int64(v), got, want)
		}
	}
}

func TestStreamDeterminism(t *testing.T) {
	a := NewStream(42, "link")
	b := NewStream(42, "link")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("identical streams diverged")
		}
	}
}

func TestStreamIndependence(t *testing.T) {
	a := NewStream(42, "link")
	b := NewStream(42, "host")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("streams with different names produced %d/100 identical draws", same)
	}
}

func TestStreamFloat64Range(t *testing.T) {
	r := NewStream(1, "f")
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestStreamIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		m := int(n%100) + 1
		r := NewStream(seed, "intn")
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Error(err)
	}
}

func TestStreamExpPositiveMean(t *testing.T) {
	r := NewStream(7, "exp")
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.Exp(5.0)
		if v < 0 {
			t.Fatalf("Exp returned negative value %v", v)
		}
		sum += v
	}
	mean := sum / n
	if mean < 4.8 || mean > 5.2 {
		t.Errorf("Exp empirical mean = %v, want ~5.0", mean)
	}
}

func TestStreamBoolProbability(t *testing.T) {
	r := NewStream(3, "bool")
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	frac := float64(hits) / n
	if frac < 0.23 || frac > 0.27 {
		t.Errorf("Bool(0.25) hit rate = %v", frac)
	}
	if r.Bool(0) {
		t.Error("Bool(0) returned true")
	}
	if !r.Bool(1) {
		t.Error("Bool(1) returned false")
	}
}

func TestStreamPerm(t *testing.T) {
	r := NewStream(9, "perm")
	p := r.Perm(50)
	seen := make(map[int]bool)
	for _, v := range p {
		if v < 0 || v >= 50 || seen[v] {
			t.Fatalf("invalid permutation: %v", p)
		}
		seen[v] = true
	}
	if len(seen) != 50 {
		t.Fatalf("permutation missing elements: %v", p)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	s := New()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Schedule(Time(i%1000), func() {})
		if s.Pending() > 1024 {
			s.RunAll()
		}
	}
	s.RunAll()
}

func BenchmarkStreamUint64(b *testing.B) {
	r := NewStream(1, "bench")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

// TestScheduleStepZeroAllocSteadyState pins the scheduler's event cycle at
// zero allocations once the free list is warm, in both tiers: every
// simulated packet costs several wheel-resident Schedule+Steps and the
// odd heap-resident one, so this is the floor under the whole hot path.
func TestScheduleStepZeroAllocSteadyState(t *testing.T) {
	for _, c := range []struct {
		tier  string
		delay Time
	}{{"wheel", 100}, {"heap", 10 * wheelSpan}} {
		s := New()
		fn := func() {}
		for i := 0; i < 64; i++ { // a standing population, so the heap has depth
			s.Schedule(c.delay, fn)
		}
		s.Schedule(c.delay, fn) // prime the free list
		s.Step()
		if n := testing.AllocsPerRun(1000, func() {
			h := s.Schedule(c.delay, fn)
			if wheel := h.ev.index == inWheel; wheel != (c.tier == "wheel") {
				t.Fatalf("delay %d is not %s-resident", c.delay, c.tier)
			}
			s.Step()
		}); n != 0 {
			t.Errorf("%s-resident Schedule+Step allocates %v times per event; budget is 0", c.tier, n)
		}
	}
}

// TestCancelReusedSlotIsNoop: a Handle from a released event must not
// cancel the event that later reuses its slot (the free-list generation
// guard).
func TestCancelReusedSlotIsNoop(t *testing.T) {
	s := New()
	ran := false
	h := s.Schedule(1, func() {})
	s.Step() // runs and releases the event; h is now stale
	s.Schedule(1, func() { ran = true })
	if s.Cancel(h) { // must not touch the reused slot
		t.Fatal("Cancel reported success on a stale handle")
	}
	s.RunAll()
	if !ran {
		t.Fatal("stale Handle canceled a reused event slot")
	}
}
