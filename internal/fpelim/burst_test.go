package fpelim

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// Burst-boundary properties: OfferBurst (the in-place filtering form) must
// keep exactly the events the equivalent Offer sequence would forward, in
// order, with identical stats — at the boundaries (empty, single) and with
// duplicates both across and inside the burst.

func offerBurstTwinCase(t *testing.T, build func() []uint32) {
	t.Helper()
	clock := func() sim.Time { return 0 }
	eb, es := New(Config{}, clock), New(Config{}, clock)

	ids := build()
	burst := make([]uint32, 0, len(ids))
	{
		evs := makeEvents(ids)
		kept := eb.OfferBurst(evs)
		for i := range kept {
			burst = append(burst, kept[i].Flow.SrcIP)
		}
	}
	seq := make([]uint32, 0, len(ids))
	{
		evs := makeEvents(ids)
		for i := range evs {
			if es.Offer(&evs[i]) {
				seq = append(seq, evs[i].Flow.SrcIP)
			}
		}
	}

	if len(burst) != len(seq) {
		t.Fatalf("burst kept %d events, sequential forwarded %d", len(burst), len(seq))
	}
	for i := range burst {
		if burst[i] != seq[i] {
			t.Fatalf("kept order diverges at %d: %d vs %d", i, burst[i], seq[i])
		}
	}
	bs, bd, bf := eb.Stats()
	ss, sd, sf := es.Stats()
	if bs != ss || bd != sd || bf != sf {
		t.Fatalf("stats diverge: burst (%d,%d,%d) vs sequential (%d,%d,%d)", bs, bd, bf, ss, sd, sf)
	}
	if eb.Len() != es.Len() {
		t.Fatalf("table sizes diverge: %d vs %d", eb.Len(), es.Len())
	}
}

func makeEvents(ids []uint32) []fevent.Event {
	evs := make([]fevent.Event, len(ids))
	for i, id := range ids {
		evs[i] = *flowEv(id, 1)
	}
	return evs
}

func repeat(ids []uint32, times int) []uint32 {
	var out []uint32
	for i := 0; i < times; i++ {
		out = append(out, ids...)
	}
	return out
}

func seqIDs(n int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(i + 1)
	}
	return ids
}

func TestOfferBurstMatchesSequentialOffer(t *testing.T) {
	cases := map[string]func() []uint32{
		"empty burst":         func() []uint32 { return nil },
		"single event":        func() []uint32 { return []uint32{7} },
		"all new":             func() []uint32 { return seqIDs(64) },
		"duplicates in burst": func() []uint32 { return repeat(seqIDs(8), 4) },
		"spans table growth":  func() []uint32 { return seqIDs(3 * initialSlots) },
		"interleaved new and dup": func() []uint32 {
			var ids []uint32
			for i := uint32(1); i <= 40; i++ {
				ids = append(ids, i, i/2+1)
			}
			return ids
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) { offerBurstTwinCase(t, build) })
	}
}

// TestOfferZeroAllocSteadyState pins the switch-CPU duplicate check (Step
// 4) at zero allocations once every identity is resident, per event and
// per 32-event batch filtered in place.
func TestOfferZeroAllocSteadyState(t *testing.T) {
	e := New(Config{MaxEntries: 4096}, func() sim.Time { return 0 })
	evs := makeEvents(seqIDs(1024))
	for i := range evs { // install every identity once: no table growth below
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
	if n := testing.AllocsPerRun(1000, func() {
		kept += len(e.OfferBurst(evs[off : off+32]))
		off = (off + 32) % len(evs)
	}); n != 0 {
		t.Errorf("OfferBurst allocates %v times per 32-event batch; budget is 0", n)
	}
	seen, duplicates, forwarded := e.Stats()
	if seen < 1024+1000+32*1000 || forwarded != 1024 || duplicates != seen-forwarded || kept != 0 || e.Len() != 1024 {
		t.Fatalf("seen=%d duplicates=%d forwarded=%d kept=%d resident=%d — the measured path was not the steady-state duplicate check",
			seen, duplicates, forwarded, kept, e.Len())
	}
}
