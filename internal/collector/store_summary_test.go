package collector

import (
	"slices"
	"testing"
	"unsafe"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// summariesFromColumns recounts every block's summary from its sw and typ
// columns and compares it, row for row, with the one the writers built.
func summariesFromColumns(t *testing.T, st *Store) {
	t.Helper()
	rows := 0
	for bi, b := range st.blocks {
		want := map[uint16]*sumRow{}
		for i := 0; i < b.n; i++ {
			if want[b.sw[i]] == nil {
				want[b.sw[i]] = &sumRow{sw: b.sw[i]}
			}
			want[b.sw[i]].n[b.typ[i]-1]++
		}
		if len(b.sum) != len(want) {
			t.Fatalf("block %d: %d summary rows, its columns hold %d switches", bi, len(b.sum), len(want))
		}
		for i, r := range b.sum {
			if i > 0 && b.sum[i-1].sw >= r.sw {
				t.Fatalf("block %d: rows %d and %d out of order (switches %d, %d)", bi, i-1, i, b.sum[i-1].sw, r.sw)
			}
			if want[r.sw] == nil || *want[r.sw] != r {
				t.Fatalf("block %d: row %+v, columns count %+v", bi, r, want[r.sw])
			}
		}
		rows += len(b.sum)
	}
	if st.sumRows != rows {
		t.Fatalf("store charges %d summary rows, its blocks hold %d", st.sumRows, rows)
	}
}

// monotonicStore holds n events of `switches` switches and every type, 64
// to a batch, each batch 1 µs after the last: block time ranges do not
// overlap, so a window can cover exactly the blocks it names.
func monotonicStore(n, switches int) *Store {
	st := NewStore()
	evs := make([]fevent.Event, 0, 64)
	for i := 0; i < n; i++ {
		ts := sim.Time(1+i/64) * sim.Microsecond
		e := fevent.Event{Type: fevent.Types[i%len(fevent.Types)], Flow: modelFlow(i % 100), SwitchID: uint16(1 + i/64%switches), Timestamp: ts, Count: 1}
		if e.Type == fevent.TypeDrop {
			e.DropCode = fevent.DropNoRoute
		}
		if evs = append(evs, e); len(evs) == cap(evs) || i == n-1 {
			st.Deliver(&fevent.Batch{SwitchID: e.SwitchID, Timestamp: ts, Events: evs})
			evs = evs[:0]
		}
	}
	return st
}

// TestCountAnswersCoveredBlocksFromSummary scribbles over the sw and typ
// columns of the blocks a window covers and requires Count not to notice:
// a block inside [Since, Until] — bounds included — is answered from its
// summary row without reading an event. One nanosecond in from either end
// the block is a window edge, is scanned, and the scribble shows.
func TestCountAnswersCoveredBlocksFromSummary(t *testing.T) {
	st := monotonicStore(3*blockLen+500, 4)
	b1, b2 := st.blocks[1], st.blocks[2]
	if st.blocks[0].maxTs >= b1.minTs || b2.maxTs >= st.blocks[3].minTs {
		t.Fatal("block time ranges overlap: the windows below would not cover blocks exactly")
	}
	sw := ptr(uint16(2))
	filters := []Filter{
		{SwitchID: sw, Type: fevent.TypeCongestion, Since: sim.Time(b1.minTs), Until: sim.Time(b2.maxTs)},
		{SwitchID: sw, Since: sim.Time(b1.minTs), Until: sim.Time(b1.maxTs)},
		{Type: fevent.TypePause, Since: sim.Time(b2.minTs), Until: sim.Time(b2.maxTs)},
		{Since: sim.Time(b1.minTs), Until: sim.Time(b2.maxTs)},
	}
	want := make([]int, len(filters))
	for i, f := range filters {
		if want[i] = st.Count(f); want[i] == 0 || want[i] != len(st.Query(f)) {
			t.Fatalf("Count(%+v) = %d, Query returns %d", f, want[i], len(st.Query(f)))
		}
	}
	for _, b := range []*block{b1, b2} {
		for i := range b.typ {
			b.typ[i], b.sw[i] = 0xff, 0xffff
		}
	}
	for i, f := range filters {
		if got := st.Count(f); got != want[i] {
			t.Errorf("Count(%+v) = %d with the covered blocks' columns scribbled, %d before: it read events", f, got, want[i])
		}
		if f.SwitchID == nil && f.Type == 0 {
			continue // names no column the scribble touched
		}
		in := f
		in.Since++
		if got := st.Count(in); got >= want[i] {
			t.Errorf("Count(%+v) = %d: a block the window only cuts into was not scanned", in, got)
		}
		in = f
		in.Until--
		if got := st.Count(in); got >= want[i] {
			t.Errorf("Count(%+v) = %d: a block the window only cuts into was not scanned", in, got)
		}
	}
}

// TestCountDoesNotAllocate: a count by switch and type, by window (edge
// blocks scanned), by drop code (every block scanned) and by flow (a chain
// of hundreds of events, kept nowhere) touches the heap nowhere.
func TestCountDoesNotAllocate(t *testing.T) {
	st := monotonicStore(2*blockLen+500, 4)
	lo, hi := sim.Time(st.blocks[0].ts[blockLen/2]), sim.Time(st.blocks[2].ts[100])
	flow := modelFlow(7)
	for _, f := range []Filter{
		{SwitchID: ptr(uint16(3)), Type: fevent.TypeCongestion},
		{SwitchID: ptr(uint16(3)), Type: fevent.TypeCongestion, Since: lo, Until: hi},
		{Since: lo, Until: hi},
		{Type: fevent.TypeDrop, DropCode: fevent.DropNoRoute},
		{Flow: &flow},
		{Flow: &flow, SwitchID: ptr(uint16(1)), Since: lo},
	} {
		if st.Count(f) == 0 {
			t.Fatalf("Count(%+v) = 0: the filter exercises nothing", f)
		}
		if n := testing.AllocsPerRun(20, func() { st.Count(f) }); n != 0 {
			t.Errorf("Count(%+v) allocates %v times", f, n)
		}
	}
}

// TestQueryAllocatesItsResultOnce: anything but a flow lookup is counted
// before it is materialised, so the result is one allocation of exactly
// the rows returned — window edges and drop codes included.
func TestQueryAllocatesItsResultOnce(t *testing.T) {
	st := monotonicStore(2*blockLen+500, 4)
	lo, hi := sim.Time(st.blocks[0].ts[blockLen/2]), sim.Time(st.blocks[2].ts[100])
	for _, f := range []Filter{
		{SwitchID: ptr(uint16(3)), Type: fevent.TypeCongestion},
		{SwitchID: ptr(uint16(3)), Since: lo, Until: hi},
		{DropCode: fevent.DropNoRoute},
	} {
		got := st.Query(f)
		if len(got) == 0 || len(got) != cap(got) {
			t.Errorf("Query(%+v) returned %d events in a slice of %d", f, len(got), cap(got))
		}
		if n := testing.AllocsPerRun(5, func() { st.Query(f) }); n != 1 {
			t.Errorf("Query(%+v) allocates %v times, want the result alone", f, n)
		}
	}
}

// TestBlockSummaryIsBoundedByTheBlock feeds a store one event from each of
// blockLen+5 switches, in no order: the first block's summary holds
// exactly blockLen rows — the bound, one a stored event — the second
// five, and MemoryBytes grows by what the rows are charged, which covers
// what their slices really hold.
func TestBlockSummaryIsBoundedByTheBlock(t *testing.T) {
	const n = blockLen + 5
	evs := make([]fevent.Event, n)
	for i := range evs {
		// 40 503 is odd, so i → i×40 503 mod 2¹⁶ repeats no switch.
		evs[i] = fevent.Event{Type: fevent.TypePause, Flow: modelFlow(0), SwitchID: uint16(i * 40503), Timestamp: sim.Time(i)}
	}
	st := NewStore()
	st.AddEvents(evs)
	if got := []int{len(st.blocks[0].sum), len(st.blocks[1].sum)}; !slices.Equal(got, []int{blockLen, 5}) {
		t.Fatalf("summaries hold %v rows, want [%d 5]", got, blockLen)
	}
	summariesFromColumns(t, st)
	want := 2*int64(blockMemCost) + n*int64(sumRowMemCost) + int64(flowSlotsFor(1))*flowSlotBytes
	if got := st.MemoryBytes(); got != want {
		t.Errorf("MemoryBytes = %d, want %d: two blocks, %d summary rows, one flow", got, want, n)
	}
	for i, b := range st.blocks {
		if held := cap(b.sum) * int(unsafe.Sizeof(sumRow{})); held > len(b.sum)*sumRowMemCost {
			t.Errorf("block %d: summary slice holds %d B, charged %d", i, held, len(b.sum)*sumRowMemCost)
		}
	}
	if got := st.Count(Filter{SwitchID: ptr(evs[blockLen+2].SwitchID)}); got != 1 {
		t.Errorf("Count(switch %d) = %d, want 1", evs[blockLen+2].SwitchID, got)
	}
	if unsafe.Offsetof(block{}.sum) != 0 {
		t.Error("block.sum is not the first field: the GC would scan into the columns")
	}

	// Dropping the events drops the rows and their charge.
	if removed := st.RemoveEvents(evs[5:]); removed != n-5 {
		t.Fatalf("RemoveEvents removed %d, want %d", removed, n-5)
	}
	summariesFromColumns(t, st)
	if got, want := st.MemoryBytes(), int64(blockMemCost)+5*int64(sumRowMemCost)+int64(flowSlotsFor(1))*flowSlotBytes; got != want {
		t.Errorf("after RemoveEvents MemoryBytes = %d, want %d", got, want)
	}
}
