package collector

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// summariesFromColumns checks every block's run table — starts at 0,
// strictly increasing and below n, no two neighbours with one switch and
// stamp, every hint naming the run that holds its position — then
// recounts the block's summary from the runs and the typ column and
// compares it, row for row, with the one the writers built; that a
// block's links are at the widths a block opens at after the events and
// flows of the blocks before it, and its flow ids in first-seen order;
// and the store's charges for blocks, rows and run capacity against what
// its blocks hold.
func summariesFromColumns(t *testing.T, st *Store) {
	t.Helper()
	rows, runCap, blockBytes, named := 0, 0, int64(0), 0
	for bi, b := range st.blocks {
		if o := openBlock(bi*blockLen, named); [3]uint8{b.w, b.pbits, b.fbits} != [3]uint8{o.w, o.pbits, o.fbits} || len(b.packed) != len(o.packed) {
			t.Fatalf("block %d opened at %d B (%d + %d bits) into %d B after %d flows, want %d B (%d + %d)", bi, b.w, b.pbits, b.fbits, len(b.packed), named, o.w, o.pbits, o.fbits)
		}
		for i := range b.n {
			if _, fid := b.links(i); int(fid) > named {
				t.Fatalf("block %d: event %d is of flow %d before flow %d", bi, i, fid, named)
			} else if int(fid) == named {
				named++
			}
		}
		blockBytes += blockMemCost + pageBytes(len(b.packed))
		want := map[uint16]*sumRow{}
		for r, ru := range b.runs {
			if r == 0 && ru.start != 0 || r > 0 && ru.start <= b.runs[r-1].start || int(ru.start) >= b.n {
				t.Fatalf("block %d of %d events: run %d starts at %d", bi, b.n, r, ru.start)
			}
			if r > 0 && ru.sw == b.runs[r-1].sw && ru.ts == b.runs[r-1].ts {
				t.Fatalf("block %d: runs %d and %d share switch %d and stamp %d", bi, r-1, r, ru.sw, ru.ts)
			}
			if want[ru.sw] == nil {
				want[ru.sw] = &sumRow{sw: ru.sw}
			}
			for i := int(ru.start); i < b.runEnd(r); i++ {
				want[ru.sw].n[b.typ[i]-1]++
			}
		}
		for h := 0; h*hintStride < b.n; h++ {
			if r := int(b.hint[h]); r >= len(b.runs) || int(b.runs[r].start) > h*hintStride || b.runEnd(r) <= h*hintStride {
				t.Fatalf("block %d: hint %d names run %d, which does not hold position %d", bi, h, r, h*hintStride)
			}
		}
		runCap += cap(b.runs)
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
	if st.sumRows != rows || st.runCap != runCap || st.blockBytes != blockBytes {
		t.Fatalf("store charges %d summary rows, %d runs' capacity and %d B of blocks, its blocks hold %d, %d and %d", st.sumRows, st.runCap, st.blockBytes, rows, runCap, blockBytes)
	}
}

// stampAt returns the stamp of event i of b, through its run.
func stampAt(b *block, i int) sim.Time { return sim.Time(b.runs[b.runAt(i)].ts) }

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

// TestCountAnswersCoveredBlocksFromSummary scribbles over the run tables
// and typ columns of the blocks a window covers and requires Count not to
// notice: a block inside [Since, Until] — bounds included — is answered
// from its summary row without reading an event. One nanosecond in from
// either end the block is a window edge, is scanned, and the scribble
// shows.
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
			b.typ[i] = 0xff
		}
		for r := range b.runs {
			b.runs[r].sw, b.runs[r].ts = 0xffff, -1
		}
	}
	for i, f := range filters {
		if got := st.Count(f); got != want[i] {
			t.Errorf("Count(%+v) = %d with the covered blocks' columns scribbled, %d before: it read events", f, got, want[i])
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
	lo, hi := stampAt(st.blocks[0], blockLen/2), stampAt(st.blocks[2], 100)
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
	lo, hi := stampAt(st.blocks[0], blockLen/2), stampAt(st.blocks[2], 100)
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
// what their slices really hold, beside the two blocks and their links,
// at 4 B an event from the start: 15 + 14 bits, then 16 + 15.
func TestBlockSummaryIsBoundedByTheBlock(t *testing.T) {
	const n = blockLen + 5
	evs := make([]fevent.Event, n)
	for i := range evs {
		// 40 503 is odd, so i → i×40 503 mod 2¹⁶ repeats no switch.
		evs[i] = fevent.Event{Type: fevent.TypePause, Flow: modelFlow(0), SwitchID: uint16(i * 40503), Timestamp: sim.Time(i), Hash: modelFlow(0).Hash()}
	}
	st := NewStore()
	importEvents(t, st, evs)
	if got := []int{len(st.blocks[0].sum), len(st.blocks[1].sum)}; !slices.Equal(got, []int{blockLen, 5}) {
		t.Fatalf("summaries hold %v rows, want [%d 5]", got, blockLen)
	}
	summariesFromColumns(t, st)
	empty := NewStore().MemoryBytes()
	for k, want := range [][3]uint8{{4, 15, 14}, {4, 16, 15}} {
		if b := st.blocks[k]; [3]uint8{b.w, b.pbits, b.fbits} != want {
			t.Fatalf("block %d opened at %d B an event, %d bits of position and %d of flow id", k, b.w, b.pbits, b.fbits)
		}
	}
	want := empty + int64(cap(st.blocks))*8 + 2*blockMemCost + 2*blockLen*4 + n*sumRowMemCost + int64(st.runCap)*runMemCost + flowTableBytes(flowSlotsFor(1))
	if got := st.MemoryBytes(); got != want || st.runCap < n {
		t.Errorf("MemoryBytes = %d, want %d: two blocks, %d summary rows and runs (%d charged), one flow", got, want, n, st.runCap)
	}
	for i, b := range st.blocks {
		if held := cap(b.sum) * int(unsafe.Sizeof(sumRow{})); held > len(b.sum)*sumRowMemCost {
			t.Errorf("block %d: summary slice holds %d B, charged %d", i, held, len(b.sum)*sumRowMemCost)
		}
	}
	if got := st.Count(Filter{SwitchID: ptr(evs[blockLen+2].SwitchID)}); got != 1 {
		t.Errorf("Count(switch %d) = %d, want 1", evs[blockLen+2].SwitchID, got)
	}
	if unsafe.Offsetof(block{}.n) != unsafe.Offsetof(block{}.packed)+unsafe.Sizeof([]byte(nil)) {
		t.Error("a block header's pointers are not its first fields: the GC would scan its run hints")
	}

	// Dropping the events drops the rows and their charge.
	if removed := removeEvents(t, st, evs[5:]); removed != n-5 {
		t.Fatalf("RemoveImage removed %d, want %d", removed, n-5)
	}
	summariesFromColumns(t, st)
	if got, want := st.MemoryBytes(), empty+int64(cap(st.blocks))*8+blockMemCost+blockLen*4+5*sumRowMemCost+int64(st.runCap)*runMemCost+flowTableBytes(flowSlotsFor(1)); got != want || st.runCap > 8 {
		t.Errorf("after RemoveImage MemoryBytes = %d, want %d", got, want)
	}
}

// TestRunsAreMaximal pins what a block's run table holds: a 370-record
// frame payload at one stamp is one run in each block it touches; appends
// that continue the last run — a second batch of the same switch and
// stamp, an in-process batch longer than appendEvents' 64-record chunks —
// extend it; in-process per-event stamps are runs of one. The counts
// survive a snapshot round trip.
func TestRunsAreMaximal(t *testing.T) {
	const flows, switches = 9, 3
	p := newPair(t, 30)
	seq := uint64(0)
	for p.st.Len() < blockLen-100 {
		seq++
		ts := sim.Time(seq) * sim.Microsecond
		p.deliverPayload(uint16(1+seq%switches), seq, ts, p.events(min(50, blockLen-100-p.st.Len()), flows, switches, ts, 0))
	}
	if got := len(p.st.blocks[0].runs); got != int(seq) {
		t.Fatalf("%d batches of their own stamps make %d runs", seq, got)
	}
	seq++
	ts := sim.Time(seq) * sim.Microsecond
	p.deliverPayload(1, seq, ts, p.events(370, flows, switches, ts, 0))
	b0, b1 := p.st.blocks[0], p.st.blocks[1]
	if len(b0.runs) != int(seq) || b0.runs[seq-1].start != blockLen-100 || len(b1.runs) != 1 || b1.n != 270 {
		t.Fatalf("a 370-record batch 100 short of a block end: %d runs (last at %d), then %d runs over %d events",
			len(b0.runs), b0.runs[len(b0.runs)-1].start, len(b1.runs), b1.n)
	}
	seq++
	p.deliverPayload(1, seq, ts, p.events(20, flows, switches, ts, 0))
	long := p.events(200, flows, switches, ts, 0)
	for i := range long {
		long[i].SwitchID = 1
	}
	p.deliver(1, 0, ts, long)
	if len(b1.runs) != 1 || b1.n != 490 {
		t.Fatalf("three appends of switch 1 at one stamp: %d runs over %d events", len(b1.runs), b1.n)
	}
	single := p.events(40, flows, switches, ts, 0)
	for i := range single {
		single[i].Timestamp = ts + sim.Time(1+i)
	}
	p.add(single)
	if len(b1.runs) != 41 {
		t.Fatalf("40 events stamped one by one make %d runs after the first", len(b1.runs)-1)
	}
	p.compare(flows, switches)
	p.reload()
	p.compare(flows, switches)
	if got := []int{len(p.st.blocks[0].runs), len(p.st.blocks[1].runs)}; !slices.Equal(got, []int{int(seq - 1), 41}) {
		t.Fatalf("after a snapshot round trip the blocks hold %v runs", got)
	}
}

// TestMemoryBytesCoversTheHeap builds the benchmark's store shape — a
// million events in exporter batches of 50, 8 and 1 records from ten
// switches, each batch sequenced, over 117 k flows — and requires
// MemoryBytes to be at least what the store added to the live heap, as
// the admission ladder assumes, and at most 1.1× it: once with one hash
// a flow, as every producer sets it, and once with every hash drawn at
// random, which the store keeps no more of.
func TestMemoryBytesCoversTheHeap(t *testing.T) {
	for _, tc := range []struct {
		name   string
		random bool
	}{{"hash per flow", false}, {"random hashes", true}} {
		random := tc.random
		t.Run(tc.name, func(t *testing.T) {
			sizes := [...]int{50, 50, 8, 50, 1, 50, 8, 50}
			evs := make([]fevent.Event, 50)
			r := rand.New(rand.NewSource(3))
			live := func() int64 {
				runtime.GC()
				var m runtime.MemStats
				runtime.ReadMemStats(&m)
				return int64(m.HeapAlloc)
			}
			before := live()
			st := NewStore()
			for seq := uint64(1); st.Len() < 1_000_000; seq++ {
				sw, ts := uint16(1+r.Intn(10)), sim.Time(seq)*10*sim.Microsecond
				for i := range evs[:sizes[seq%8]] {
					evs[i] = fevent.Event{Type: fevent.Types[r.Intn(4)], Flow: modelFlow(r.Intn(117_000)), SwitchID: sw, Timestamp: ts, Count: 1}
					if evs[i].Hash = evs[i].Flow.Hash(); random {
						evs[i].Hash = r.Uint32()
					}
				}
				st.Deliver(&fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: evs[:sizes[seq%8]]})
			}
			heap, est := live()-before, st.MemoryBytes()
			t.Logf("%d events, %d flows, %d batches: MemoryBytes %d, heap growth %d (%.4f)", st.Len(), len(st.flows.keys), st.seen.n, est, heap, float64(est)/float64(heap))
			if est < heap || est > heap*11/10 {
				t.Errorf("MemoryBytes = %d against %d B of heap growth: want within [1, 1.1]×", est, heap)
			}
			runtime.KeepAlive(st)
		})
	}
}
