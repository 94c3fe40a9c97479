package fpelim

import (
	"hash/crc32"
	"testing"
	"testing/quick"

	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func flowEv(n uint32, count uint16) *fevent.Event {
	f := pkt.FlowKey{SrcIP: n, DstIP: 9, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoTCP}
	return &fevent.Event{Type: fevent.TypeCongestion, Flow: f, Count: count, Hash: f.Hash()}
}

func fixedClock(t sim.Time) func() sim.Time { return func() sim.Time { return t } }

func TestFirstReportForwarded(t *testing.T) {
	e := New(Config{}, fixedClock(0))
	if !e.Offer(flowEv(1, 1)) {
		t.Error("first report suppressed")
	}
}

func TestDuplicateInitialReportSuppressed(t *testing.T) {
	// The §3.6 pattern: collision churn re-reports count=1 for an event
	// already reported.
	e := New(Config{}, fixedClock(0))
	e.Offer(flowEv(1, 1))
	if e.Offer(flowEv(1, 1)) {
		t.Error("duplicate initial report forwarded")
	}
	_, dups, _ := e.Stats()
	if dups != 1 {
		t.Errorf("duplicates = %d, want 1", dups)
	}
}

func TestProgressReportForwarded(t *testing.T) {
	e := New(Config{}, fixedClock(0))
	e.Offer(flowEv(1, 1))
	if !e.Offer(flowEv(1, 128)) {
		t.Error("progress report (C crossing) suppressed")
	}
	if e.Offer(flowEv(1, 128)) {
		t.Error("repeated progress report forwarded")
	}
	if !e.Offer(flowEv(1, 256)) {
		t.Error("second progress report suppressed")
	}
}

func TestDistinctFlowsIndependent(t *testing.T) {
	e := New(Config{}, fixedClock(0))
	for n := uint32(0); n < 100; n++ {
		if !e.Offer(flowEv(n, 1)) {
			t.Fatalf("flow %d suppressed", n)
		}
	}
	if e.Len() != 100 {
		t.Errorf("Len = %d, want 100", e.Len())
	}
}

func TestWindowExpiryStartsNewEpisode(t *testing.T) {
	now := sim.Time(0)
	e := New(Config{Window: sim.Second}, func() sim.Time { return now })
	e.Offer(flowEv(1, 5))
	now = 2 * sim.Second
	if !e.Offer(flowEv(1, 1)) {
		t.Error("report after window expiry suppressed — new episode must forward")
	}
}

func TestHashModesAgree(t *testing.T) {
	f := func(n uint32, c1, c2 uint16) bool {
		a := New(Config{Mode: PreHashed}, fixedClock(0))
		b := New(Config{Mode: HashOnCPU}, fixedClock(0))
		r1a := a.Offer(flowEv(n, c1))
		r1b := b.Offer(flowEv(n, c1))
		r2a := a.Offer(flowEv(n, c2))
		r2b := b.Offer(flowEv(n, c2))
		return r1a == r1b && r2a == r2b
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSoftwareCRCMatchesStdlib(t *testing.T) {
	// The deliberately slow software CRC must still be *correct* CRC-32C.
	ev := flowEv(12345, 1)
	var buf [16]byte
	ev.Flow.PutWire(buf[:13])
	buf[13] = byte(ev.Type)
	buf[14] = byte(ev.DropCode)
	buf[15] = ev.ACLRule
	want := crc32.Checksum(buf[:], crc32.MakeTable(crc32.Castagnoli))
	if got := softwareCRC32C(ev); got != want {
		t.Errorf("softwareCRC32C = %#x, want %#x", got, want)
	}
}

func TestMaxEntriesEviction(t *testing.T) {
	now := sim.Time(0)
	e := New(Config{MaxEntries: 100, Window: sim.Second}, func() sim.Time { return now })
	for n := uint32(0); n < 100; n++ {
		e.Offer(flowEv(n, 1))
	}
	// All entries are fresh; inserting one more forces the clear-all
	// fallback, then the insert proceeds.
	now = 10 * sim.Millisecond
	if !e.Offer(flowEv(200, 1)) {
		t.Error("insert after eviction suppressed")
	}
	if e.Len() > 100 {
		t.Errorf("Len = %d, exceeded MaxEntries", e.Len())
	}
}

func TestExpireRemovesOnlyStale(t *testing.T) {
	now := sim.Time(0)
	e := New(Config{MaxEntries: 10, Window: sim.Second}, func() sim.Time { return now })
	for n := uint32(0); n < 5; n++ {
		e.Offer(flowEv(n, 1))
	}
	now = 2 * sim.Second // first five go stale
	for n := uint32(10); n < 15; n++ {
		e.Offer(flowEv(n, 1))
	}
	now = 2*sim.Second + sim.Millisecond
	e.Offer(flowEv(20, 1)) // triggers expire: the 5 stale entries leave
	if e.Len() != 6 {
		t.Errorf("Len = %d, want 6 (5 fresh + 1 new)", e.Len())
	}
}

func TestNilClockPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil clock did not panic")
		}
	}()
	New(Config{}, nil)
}

func TestShardStable(t *testing.T) {
	ev := flowEv(7, 1)
	a, b := Shard(ev, 4), Shard(ev, 4)
	if a != b {
		t.Error("Shard not stable")
	}
	if a < 0 || a >= 4 {
		t.Errorf("Shard out of range: %d", a)
	}
}

func TestShardDistributes(t *testing.T) {
	counts := make([]int, 2)
	for n := uint32(0); n < 1000; n++ {
		counts[Shard(flowEv(n, 1), 2)]++
	}
	if counts[0] < 300 || counts[1] < 300 {
		t.Errorf("shard imbalance: %v", counts)
	}
}

func TestPacerAdmitsWithinRate(t *testing.T) {
	p := NewPacer(1e9, 10000) // 1 Gb/s, 10 kB burst
	if d := p.Admit(0, 1000); d != 0 {
		t.Errorf("burst send delayed by %v", d)
	}
}

func TestPacerDelaysOverRate(t *testing.T) {
	p := NewPacer(1e6, 100) // 1 Mb/s, 100 B burst
	p.Admit(0, 100)         // exhausts the bucket
	d := p.Admit(0, 100)
	if d <= 0 {
		t.Error("over-rate send not delayed")
	}
	// 800 bits at 1 Mb/s = 800 µs.
	if d < 700*sim.Microsecond || d > 900*sim.Microsecond {
		t.Errorf("delay = %v, want ~800µs", d)
	}
	_, delayed := p.Stats()
	if delayed != 1 {
		t.Errorf("delayed = %d, want 1", delayed)
	}
}

func TestPacerRefills(t *testing.T) {
	p := NewPacer(1e6, 100)
	p.Admit(0, 100)
	// After 1 ms, 1000 bits ≈ 125 bytes refilled (capped at 100 B burst).
	if d := p.Admit(sim.Millisecond, 100); d != 0 {
		t.Errorf("refilled send delayed by %v", d)
	}
}

func TestPacerSustainedRate(t *testing.T) {
	// Sending 100 × 1 kB through a 8 Mb/s pacer must spread over ~100 ms.
	p := NewPacer(8e6, 1000)
	now := sim.Time(0)
	var last sim.Time
	for i := 0; i < 100; i++ {
		d := p.Admit(now, 1000)
		now += d
		last = now
	}
	if last < 90*sim.Millisecond || last > 110*sim.Millisecond {
		t.Errorf("100 kB at 8 Mb/s finished at %v, want ~100ms", last)
	}
}

// TestPacerTryTake: a strict take spends the budget it is granted,
// refuses without spending what the bucket does not hold, refills like
// Admit, and counts no send or delay.
func TestPacerTryTake(t *testing.T) {
	p := NewPacer(1e6, 100) // 1 Mb/s, 100 B burst
	if !p.TryTake(0, 60) {
		t.Fatal("take within the burst refused")
	}
	if p.TryTake(0, 60) {
		t.Fatal("take past the budget granted")
	}
	if !p.TryTake(0, 40) {
		t.Fatal("a refused take spent budget")
	}
	if p.TryTake(0, 1) {
		t.Fatal("empty bucket granted a take")
	}
	// 400 µs at 1 Mb/s refills 400 bits, 50 B.
	if !p.TryTake(400*sim.Microsecond, 50) || p.TryTake(400*sim.Microsecond, 1) {
		t.Fatal("refill is not 50 B after 400 µs")
	}
	if sent, delayed := p.Stats(); sent != 0 || delayed != 0 {
		t.Fatalf("TryTake counted sent=%d delayed=%d", sent, delayed)
	}
}

func TestPacerValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid pacer did not panic")
		}
	}()
	NewPacer(0, 100)
}

func BenchmarkOfferPreHashed(b *testing.B) {
	e := New(Config{Mode: PreHashed}, fixedClock(0))
	evs := make([]*fevent.Event, 1024)
	for i := range evs {
		evs[i] = flowEv(uint32(i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Offer(evs[i%len(evs)])
	}
}

func BenchmarkOfferHashOnCPU(b *testing.B) {
	e := New(Config{Mode: HashOnCPU}, fixedClock(0))
	evs := make([]*fevent.Event, 1024)
	for i := range evs {
		evs[i] = flowEv(uint32(i), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Offer(evs[i%len(evs)])
	}
}

// TestOfferZeroAllocSteadyState pins the switch-CPU duplicate check (Step
// 4) at zero allocations once every identity is resident, per event and
// per 32-event batch filtered in place.
func TestOfferZeroAllocSteadyState(t *testing.T) {
	e := New(Config{MaxEntries: 4096}, func() sim.Time { return 0 })
	evs := make([]fevent.Event, 1024)
	for i := range evs { // install every identity once: no table growth below
		evs[i] = *flowEv(uint32(i+1), 1)
		e.Offer(&evs[i])
	}
	var i int
	if n := testing.AllocsPerRun(1000, func() {
		e.Offer(&evs[i%len(evs)])
		i++
	}); n != 0 {
		t.Errorf("Offer allocates %v times per event; budget is 0", n)
	}
	var off, kept int
	var tc trace.Context // unsampled, as every batch of an untraced run
	if n := testing.AllocsPerRun(1000, func() {
		kept += len(e.OfferBatch(&tc, evs[off:off+32]))
		off = (off + 32) % len(evs)
	}); n != 0 {
		t.Errorf("OfferBatch allocates %v times per 32-event batch; budget is 0", n)
	}
	seen, duplicates, forwarded := e.Stats()
	if seen < 1024+1000+32*1000 || forwarded != 1024 || duplicates != seen-forwarded || kept != 0 || e.Len() != 1024 {
		t.Fatalf("seen=%d duplicates=%d forwarded=%d kept=%d resident=%d — the measured path was not the steady-state duplicate check",
			seen, duplicates, forwarded, kept, e.Len())
	}
}
