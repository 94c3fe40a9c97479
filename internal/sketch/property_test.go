package sketch

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Property tests for the sketch guarantees in isolation, over seeded
// random (geometry, stream) draws — not fixed vectors. Each property is
// the deterministic half of the textbook claim: overestimate-only,
// conservative ≤ plain, and the space-saving error/residency invariants.

// randFlow derives a distinct 5-tuple for index i.
func randFlow(i int) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.IP(10, 0, byte(i>>8), byte(i)), DstIP: pkt.IP(10, 1, 2, 3),
		SrcPort: uint16(1000 + i), DstPort: 80, Proto: pkt.ProtoUDP,
	}
}

// randStream draws a stream of flow indices from [0, flows) with a mild
// skew (squaring biases toward low indices, so some flows dominate).
func randStream(rng *sim.Stream, flows, n int) []int {
	out := make([]int, n)
	for i := range out {
		r := rng.Float64()
		out[i] = int(r * r * float64(flows))
		if out[i] >= flows {
			out[i] = flows - 1
		}
	}
	return out
}

func TestCMSOverestimateOnly(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewStream(seed, "cms-prop")
		width := 8 << rng.Intn(8) // 8..1024
		depth := 1 + rng.Intn(5)
		flows := 1 + rng.Intn(256)
		stream := randStream(rng, flows, 200+rng.Intn(2000))
		for _, conservative := range []bool{false, true} {
			c := NewCMS(width, depth, conservative)
			truth := make(map[int]uint32)
			for _, f := range stream {
				truth[f]++
				if est := c.Update(randFlow(f).Hash()); est < truth[f] {
					t.Fatalf("seed %d w=%d d=%d cons=%v: update estimate %d below true %d",
						seed, width, depth, conservative, est, truth[f])
				}
			}
			for f, n := range truth {
				if est := c.Estimate(randFlow(f).Hash()); est < n {
					t.Fatalf("seed %d w=%d d=%d cons=%v: final estimate %d below true %d",
						seed, width, depth, conservative, est, n)
				}
			}
			if c.Total() != uint64(len(stream)) {
				t.Fatalf("total %d, want %d", c.Total(), len(stream))
			}
		}
	}
}

func TestConservativeNeverExceedsPlain(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewStream(seed, "cms-cons")
		width := 4 << rng.Intn(6) // tiny widths force collisions
		depth := 1 + rng.Intn(4)
		flows := 1 + rng.Intn(128)
		stream := randStream(rng, flows, 100+rng.Intn(1500))
		plain := NewCMS(width, depth, false)
		cons := NewCMS(width, depth, true)
		seen := make(map[int]bool)
		for _, f := range stream {
			seen[f] = true
			plain.Update(randFlow(f).Hash())
			cons.Update(randFlow(f).Hash())
		}
		for f := range seen {
			h := randFlow(f).Hash()
			if ce, pe := cons.Estimate(h), plain.Estimate(h); ce > pe {
				t.Fatalf("seed %d w=%d d=%d: conservative estimate %d exceeds plain %d",
					seed, width, depth, ce, pe)
			}
		}
	}
}

func TestCMSAddNMatchesUpdates(t *testing.T) {
	// AddN is the order-free construction the oracle rebuilds ground truth
	// with; it must agree exactly with n plain updates of the same key.
	rng := sim.NewStream(7, "cms-addn")
	a := NewCMS(64, 3, false)
	b := NewCMS(64, 3, false)
	for f := 0; f < 40; f++ {
		n := 1 + rng.Intn(50)
		h := randFlow(f).Hash()
		a.AddN(h, uint64(n))
		for i := 0; i < n; i++ {
			b.Update(h)
		}
	}
	for f := 0; f < 40; f++ {
		h := randFlow(f).Hash()
		if a.Estimate(h) != b.Estimate(h) {
			t.Fatalf("flow %d: AddN estimate %d != update estimate %d", f, a.Estimate(h), b.Estimate(h))
		}
	}
	if a.Total() != b.Total() {
		t.Fatalf("totals diverge: %d vs %d", a.Total(), b.Total())
	}
}

func TestSpaceSavingInvariants(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := sim.NewStream(seed, "topk-prop")
		k := 2 + rng.Intn(30)
		flows := 1 + rng.Intn(200)
		stream := randStream(rng, flows, 100+rng.Intn(3000))
		tk := NewTopK(k)
		truth := make(map[pkt.FlowKey]uint64)
		for _, f := range stream {
			fl := randFlow(f)
			truth[fl]++
			tk.Offer(fl, fl.Hash())
		}
		n := uint64(len(stream))
		if tk.Total() != n {
			t.Fatalf("total %d, want %d", tk.Total(), n)
		}
		min := tk.Min()
		resident := make(map[pkt.FlowKey]bool)
		for i := 0; i < tk.Len(); i++ {
			flow, count, err := tk.Entry(i)
			resident[flow] = true
			tr := truth[flow]
			if tr == 0 {
				t.Fatalf("seed %d k=%d: resident flow never offered: %v", seed, k, flow)
			}
			if count < tr {
				t.Fatalf("seed %d k=%d: counter %d underestimates true %d", seed, k, count, tr)
			}
			if count-err > tr {
				t.Fatalf("seed %d k=%d: count %d − err %d exceeds true %d", seed, k, count, err, tr)
			}
			if err > min {
				t.Fatalf("seed %d k=%d: err %d exceeds min counter %d", seed, k, err, min)
			}
		}
		// Residency guarantee: every flow with true count > N/K is in the
		// table when the stream ends.
		for flow, tr := range truth {
			if tr*uint64(k) > n && !resident[flow] {
				t.Fatalf("seed %d k=%d: flow with true %d > N/K (N=%d) not resident", seed, k, tr, n)
			}
		}
	}
}

func TestTopKMinBoundsNK(t *testing.T) {
	rng := sim.NewStream(3, "topk-min")
	tk := NewTopK(8)
	for i := 0; i < 4000; i++ {
		f := randFlow(rng.Intn(100))
		tk.Offer(f, f.Hash())
	}
	if min := tk.Min(); min > tk.Total()/uint64(tk.K()) {
		t.Fatalf("min counter %d exceeds N/K = %d", min, tk.Total()/uint64(tk.K()))
	}
}

func TestNewPanicsOnBadGeometry(t *testing.T) {
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("NewCMS width", func() { NewCMS(0, 4, false) })
	mustPanic("NewCMS depth", func() { NewCMS(16, 0, false) })
	mustPanic("NewTopK", func() { NewTopK(0) })
	mustPanic("NewStage report", func() { NewStage(Config{}, 4, nil) })
	mustPanic("NewStage ports", func() { NewStage(Config{}, 0, func(*fevent.Event) {}) })
}

func TestFlushIdempotent(t *testing.T) {
	var events []fevent.Event
	cfg := Config{TopK: 4, HHThresholdPkts: 4, ChurnMin: 1, SpikeBytes: 1 << 10}
	s := NewStage(cfg, 2, func(e *fevent.Event) { events = append(events, *e) })
	mem := s.MemoryBytes()
	p := pkt.Packet{Flow: randFlow(1), WireLen: 1400}
	for i := 0; i < 8; i++ {
		s.Offer(&p, 0, 1, sim.Time(i*100))
	}
	s.Flush(1000)
	// The SRAM footprint is fixed when the stage is built.
	if mem <= 0 || s.MemoryBytes() != mem {
		t.Fatalf("MemoryBytes %d after traffic, %d at construction", s.MemoryBytes(), mem)
	}
	n := len(events)
	if n == 0 {
		t.Fatal("first flush emitted nothing")
	}
	// A second flush with no traffic re-emits only the (unchanged) top-K
	// snapshot — identical events the CPU eliminator suppresses — and no
	// new spikes.
	spikes := s.Stats().Spikes
	s.Flush(1000)
	if s.Stats().Spikes != spikes {
		t.Fatalf("quiescent flush emitted new spikes: %+v", s.Stats())
	}
	for _, e := range events[n:] {
		if e.Type != fevent.TypeTopKChurn {
			t.Fatalf("quiescent flush emitted non-snapshot event: %+v", e)
		}
	}
}

func TestResetClearsState(t *testing.T) {
	// A repetition starts from a fresh stage: one built from the same
	// config as a used stage shares none of its counters or tables.
	var events int
	cfg := Config{TopK: 2, HHThresholdPkts: 2, ChurnMin: 1, SpikeBytes: 1 << 10}
	used := NewStage(cfg, 2, func(*fevent.Event) { events++ })
	p := pkt.Packet{Flow: randFlow(1), WireLen: 1400}
	for i := 0; i < 4; i++ {
		used.Offer(&p, 0, 1, sim.Time(i))
	}
	if used.Stats() == (Stats{}) || used.CMSEstimate(p.Flow.Hash()) == 0 || used.TopKTable().Len() == 0 {
		t.Fatal("traffic left no sketch state")
	}
	s := NewStage(cfg, 2, func(*fevent.Event) { events++ })
	if s.Stats() != (Stats{}) {
		t.Fatalf("fresh stage has stats: %+v", s.Stats())
	}
	if s.CMSEstimate(p.Flow.Hash()) != 0 || s.TopKTable().Len() != 0 {
		t.Fatal("fresh stage shares sketch state")
	}
	if s.MemoryBytes() <= 0 || s.MemoryBytes() != used.MemoryBytes() {
		t.Fatalf("MemoryBytes %d fresh, %d used", s.MemoryBytes(), used.MemoryBytes())
	}
}
