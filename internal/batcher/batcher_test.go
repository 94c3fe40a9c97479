package batcher

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func ev(n uint32) *fevent.Event {
	f := pkt.FlowKey{SrcIP: n, DstIP: 1, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	return &fevent.Event{Type: fevent.TypeCongestion, Flow: f, Hash: f.Hash(), Count: 1}
}

func TestBatchSizeRespected(t *testing.T) {
	s := sim.New()
	// The batch is only valid during the callback; copy what the
	// assertions need.
	type flushed struct {
		events   int
		switchID uint16
	}
	var batches []flushed
	b := New(s, Config{BatchSize: 10, SwitchID: 3, CEBPs: 1}, func(bt *fevent.Batch) {
		batches = append(batches, flushed{len(bt.Events), bt.SwitchID})
	})
	for i := 0; i < 100; i++ {
		if !b.Push(ev(uint32(i))) {
			t.Fatalf("push %d rejected", i)
		}
	}
	s.Run(sim.Millisecond)
	b.Stop()
	if len(batches) != 10 {
		t.Fatalf("got %d batches, want 10", len(batches))
	}
	for i, bt := range batches {
		if bt.events != 10 {
			t.Errorf("batch %d has %d events", i, bt.events)
		}
		if bt.switchID != 3 {
			t.Errorf("batch %d switch ID %d", i, bt.switchID)
		}
	}
}

func TestAllEventsDeliveredNoDuplicates(t *testing.T) {
	s := sim.New()
	seen := make(map[uint32]int)
	b := New(s, Config{BatchSize: 7, StackDepth: 1024}, func(bt *fevent.Batch) {
		for i := range bt.Events {
			seen[bt.Events[i].Flow.SrcIP]++
		}
	})
	const n = 533
	for i := 0; i < n; i++ {
		b.Push(ev(uint32(i)))
	}
	s.Run(sim.Millisecond)
	b.Flush()
	b.Stop()
	if len(seen) != n {
		t.Fatalf("delivered %d distinct events, want %d", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("event %d delivered %d times", id, c)
		}
	}
}

func TestStackOverflowCounted(t *testing.T) {
	s := sim.New()
	b := New(s, Config{StackDepth: 4, BatchSize: 50}, func(*fevent.Batch) {})
	okCount := 0
	for i := 0; i < 10; i++ {
		if b.Push(ev(uint32(i))) {
			okCount++
		}
	}
	if okCount != 4 {
		t.Errorf("accepted %d, want 4", okCount)
	}
	_, overflow, _, _, _ := b.Stats()
	if overflow != 6 {
		t.Errorf("overflow = %d, want 6", overflow)
	}
	b.Stop()
}

func TestIdleFlushDeliversPartial(t *testing.T) {
	s := sim.New()
	var batchSizes []int
	b := New(s, Config{BatchSize: 50, CEBPs: 1, IdleFlush: 10 * sim.Microsecond},
		func(bt *fevent.Batch) { batchSizes = append(batchSizes, len(bt.Events)) })
	for i := 0; i < 5; i++ {
		b.Push(ev(uint32(i)))
	}
	s.Run(sim.Millisecond)
	b.Stop()
	if len(batchSizes) != 1 {
		t.Fatalf("got %d batches, want 1 idle-flushed", len(batchSizes))
	}
	if batchSizes[0] != 5 {
		t.Errorf("idle batch has %d events, want 5", batchSizes[0])
	}
}

func TestFlushDrainsPartialPayloads(t *testing.T) {
	s := sim.New()
	total := 0
	b := New(s, Config{BatchSize: 50}, func(bt *fevent.Batch) { total += len(bt.Events) })
	for i := 0; i < 23; i++ {
		b.Push(ev(uint32(i)))
	}
	s.Run(50 * sim.Microsecond) // CEBPs pop some events into payloads
	b.Flush()
	b.Stop()
	if total != 23 {
		t.Errorf("delivered %d events, want 23", total)
	}
}

func TestThroughputScalesWithBatchSize(t *testing.T) {
	// Fig. 12's shape: larger batches amortize the flush trip, so events/s
	// rises with batch size and saturates.
	rate := func(batchSize int) float64 {
		s := sim.New()
		delivered := 0
		b := New(s, Config{BatchSize: batchSize, StackDepth: 1 << 20},
			func(bt *fevent.Batch) { delivered += len(bt.Events) })
		// Saturate the stack.
		for i := 0; i < 1<<18; i++ {
			b.Push(ev(uint32(i)))
		}
		horizon := 2 * sim.Millisecond
		s.Run(horizon)
		b.Stop()
		return float64(delivered) / horizon.Seconds()
	}
	r1, r10, r50 := rate(1), rate(10), rate(50)
	if !(r1 < r10 && r10 < r50) {
		t.Errorf("throughput not increasing with batch size: %g %g %g", r1, r10, r50)
	}
	// Saturation plateau: 50 → 70 should gain little.
	r70 := rate(70)
	if r70 < 0.90*r50 {
		t.Errorf("throughput collapsed past saturation: %g → %g", r50, r70)
	}
	if (r70-r50)/r50 > 0.10 {
		t.Errorf("no saturation: 50→70 gained %.1f%%", (r70-r50)/r50*100)
	}
	// The paper's magnitude: tens of Meps at batch 50.
	if r50 < 20e6 || r50 > 500e6 {
		t.Errorf("batch-50 rate %.1f Meps outside plausible window", r50/1e6)
	}
}

func TestPortBytesAccounted(t *testing.T) {
	s := sim.New()
	b := New(s, Config{BatchSize: 10}, func(*fevent.Batch) {})
	for i := 0; i < 10; i++ {
		b.Push(ev(uint32(i)))
	}
	s.Run(100 * sim.Microsecond)
	b.Stop()
	_, _, _, _, portBytes := b.Stats()
	if portBytes == 0 {
		t.Error("no internal-port bytes accounted")
	}
}

func TestNilOutPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with nil out did not panic")
		}
	}()
	New(sim.New(), Config{}, nil)
}

func TestStopHaltsCirculation(t *testing.T) {
	s := sim.New()
	b := New(s, Config{}, func(*fevent.Batch) {})
	b.Stop()
	s.RunAll() // must terminate: stopped CEBPs do not reschedule
	if s.Pending() != 0 {
		t.Error("events still pending after Stop + RunAll")
	}
}

// TestDormantCEBPHoldsNoEvent: CEBPs left holding partial payloads over
// an empty stack schedule nothing, yet the counters report every pass
// they would have made, a scrape moves nothing, and the next push finds
// them on their lattice.
func TestDormantCEBPHoldsNoEvent(t *testing.T) {
	s := sim.New()
	delivered := 0
	b := New(s, Config{BatchSize: 4, CEBPs: 3}, func(bt *fevent.Batch) { delivered += len(bt.Events) })
	for i := 0; i < 3; i++ {
		b.Push(ev(uint32(i)))
	}
	s.Run(sim.Millisecond)
	if s.Pending() != 0 {
		t.Fatalf("%d events pending with every CEBP idle over an empty stack", s.Pending())
	}
	if n := s.Processed(); n > 20 {
		t.Errorf("%d simulator events for 3 pops", n)
	}
	passes, pops := b.PassStats()
	_, _, _, _, portBytes := b.Stats()
	// Three CEBPs, one event each, a pass every 100 ns for a millisecond.
	if pops != 3 || passes < 29_000 || passes > 30_010 {
		t.Errorf("passes %d pops %d; want 3 pops and ~30 000 passes, virtual ones included", passes, pops)
	}
	if again, _ := b.PassStats(); again != passes {
		t.Errorf("a second scrape at the same instant read %d passes, the first %d", again, passes)
	}
	if portBytes < passes*uint64(14+fevent.BatchHeaderLen) {
		t.Errorf("portBytes %d does not cover %d passes", portBytes, passes)
	}
	// Each CEBP needs three more events; the pushes must wake all three.
	s.Run(s.Now() + 33)
	for i := 0; i < 9; i++ {
		b.Push(ev(uint32(10 + i)))
	}
	s.Run(2 * sim.Millisecond)
	if delivered != 12 || s.Pending() != 0 {
		t.Errorf("delivered %d of 12 events, %d events pending", delivered, s.Pending())
	}
	if later, _ := b.PassStats(); later < passes+9 {
		t.Errorf("passes went from %d to %d over nine more pops", passes, later)
	}
}

// TestPushPassZeroAllocSteadyState pins the CEBP push/pop cycle (§3.5) at
// zero allocations per event, pushed one at a time and as a burst, flushes
// included: the flush path hands the callee a reused scratch batch over
// the CEBP's own payload array.
func TestPushPassZeroAllocSteadyState(t *testing.T) {
	s := sim.New()
	var delivered int
	b := New(s, Config{CEBPs: 1, StackDepth: 1 << 10, BatchSize: 4096},
		func(batch *fevent.Batch) { delivered += len(batch.Events) })
	s.RunAll() // park the initial pass
	e := ev(1)
	// Warm the sim free list and the CEBP payload.
	for i := 0; i < 8; i++ {
		b.Push(e)
		s.Step()
	}
	if n := testing.AllocsPerRun(500, func() {
		b.Push(e)
		s.Step()
	}); n != 0 {
		t.Errorf("Push+pass allocates %v times per event; budget is 0", n)
	}
	// The burst form: one PushBurst of a 32-record extraction buffer, then
	// the passes that drain it.
	burst := make([]fevent.Event, 32)
	for i := range burst {
		burst[i] = *ev(uint32(i + 1))
	}
	if n := testing.AllocsPerRun(500, func() {
		b.PushBurst(burst)
		for range burst {
			s.Step()
		}
	}); n != 0 {
		t.Errorf("PushBurst+passes allocates %v times per 32-event burst; budget is 0", n)
	}
	b.Flush()
	pushed, overflow, _, _, _ := b.Stats()
	if overflow != 0 || pushed < 500+32*500 || delivered != int(pushed) {
		t.Fatalf("measured path lost events: pushed=%d overflow=%d delivered=%d", pushed, overflow, delivered)
	}
}
