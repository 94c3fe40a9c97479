package collector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
)

// headTable is what the differential drives: the flow table, or a mutant
// of it.
type headTable interface {
	swapRun(keys []byte, stride int, heads []uint32)
	get(key []byte) uint32
	table() *flowTable
}

func (t *flowTable) table() *flowTable { return t }

// protoBlind is the seeded mutation: a table that compares (and hashes)
// 12 of the 13 key bytes.
type protoBlind struct{ flowTable }

func blind(key []byte) []byte {
	k := flowKey(key)
	k[pkt.FlowKeyLen-1] = 0
	return k[:]
}
func (t *protoBlind) get(key []byte) uint32 { return t.flowTable.get(blind(key)) }
func (t *protoBlind) swapRun(keys []byte, stride int, heads []uint32) {
	keys = slices.Clone(keys)
	for i := range heads {
		keys[i*stride+pkt.FlowKeyLen-1] = 0
	}
	t.flowTable.swapRun(keys, stride, heads)
}

// programStats counts what a flowTableProgram exercised.
type programStats struct {
	runs, twoGroupRuns, repeatRuns, midRunDoublings, zeroKeys, gets, absentGets int
}

// flowTableProgram runs seeded runs of find-or-insert — 1 to
// 2×probeGroup keys each, so a run spans one probe group or two, at the
// strides of a bare key, a snapshot row and a record, keys repeated
// within a run — each followed by half as many single gets, against tab
// and a map[pkt.FlowKey]uint32, ops keys in all, and returns the first
// disagreement. After every run the table must be exactly the size its
// flow count calls for. The population holds the all-zero key (agg-spike
// events carry it) and, for every tuple, flows that differ only in the
// proto byte; it grows as the program runs, so the table doubles several
// times, inside runs as well as between them. Gets draw from twice the
// population, so at least half of them ask for a flow never stored.
func flowTableProgram(tab headTable, seed int64, ops int) (programStats, error) {
	r := rand.New(rand.NewSource(seed))
	model := map[pkt.FlowKey]uint32{}
	draw := func(population int) pkt.FlowKey {
		i := r.Intn(population)
		if i == 0 {
			return pkt.FlowKey{}
		}
		f := modelFlow(i / 3)
		f.Proto = []uint8{pkt.ProtoTCP, pkt.ProtoUDP, 0}[i%3]
		return f
	}
	var (
		st    programStats
		key   flowKey
		flows [2 * probeGroup]pkt.FlowKey
		heads [2 * probeGroup]uint32
	)
	for op := 0; op < ops; {
		population := 16 + op/4 // 200 k ops reach 50 k keys: a dozen doublings
		n := 1 + r.Intn(2*probeGroup)
		if r.Intn(4) == 0 {
			n = 1
		}
		stride := []int{pkt.FlowKeyLen, snapFlowLen, fevent.RecordLen}[r.Intn(3)]
		keys := make([]byte, n*stride)
		r.Read(keys) // the bytes between keys are not the table's to read
		fresh, repeat := 0, false
		for i := range n {
			if i > 0 && r.Intn(8) == 0 {
				flows[i], repeat = flows[r.Intn(i)], true
			} else {
				flows[i] = draw(population)
			}
			flows[i].PutWire(keys[i*stride:])
			if flows[i] == (pkt.FlowKey{}) {
				st.zeroKeys++
			}
			if _, ok := model[flows[i]]; !ok && !slices.Contains(flows[:i], flows[i]) {
				fresh++
			}
			heads[i] = 1 + uint32(op+i)
		}
		ft := tab.table()
		before := len(ft.slots)
		if room := before/4*3 - ft.n; before > 0 && room > 0 && fresh > room {
			st.midRunDoublings++ // the insert that doubles the table is not the run's first
		}
		want := heads
		tab.swapRun(keys, stride, heads[:n])
		for i, f := range flows[:n] {
			if got := heads[i]; got != model[f] {
				return st, fmt.Errorf("op %d: key %d of a %d-key run (%v) replaced head %d, map held %d", op, i, n, f, got, model[f])
			}
			model[f] = want[i]
		}
		if len(ft.slots) != flowSlotsFor(ft.n) {
			return st, fmt.Errorf("op %d: %d flows in %d slots after a %d-key run, want %d slots", op, ft.n, len(ft.slots), n, flowSlotsFor(ft.n))
		}
		st.runs++
		if n > probeGroup {
			st.twoGroupRuns++
		}
		if repeat {
			st.repeatRuns++
		}
		op += n
		for range 1 + n/2 { // a third of the ops, as when a get was drawn instead of a run
			f := draw(2 * population)
			f.PutWire(key[:])
			want, ok := model[f]
			if got := tab.get(key[:]); got != want {
				return st, fmt.Errorf("op %d: get(%v) = %d, map %d", op, f, got, want)
			}
			st.gets++
			if !ok {
				st.absentGets++
			}
			op++
		}
	}
	for f, want := range model {
		f.PutWire(key[:])
		if got := tab.get(key[:]); got != want {
			return st, fmt.Errorf("final get(%v) = %d, map %d", f, got, want)
		}
	}
	if ft := tab.table(); ft.n != len(model) {
		return st, fmt.Errorf("table holds %d flows, map %d", ft.n, len(model))
	}
	return st, nil
}

// TestFlowTableAgainstMap is the flow table's differential: seeded
// programs of ≥ 200 k keys in runs and lookups agree with a Go map at
// every step — runs that repeat a key, runs that double the table part
// way through, the all-zero key, lookups of absent flows between runs —
// and the same programs catch a table that ignores the proto byte.
func TestFlowTableAgainstMap(t *testing.T) {
	const ops = 200_000
	for seed := int64(1); seed <= 3; seed++ {
		tab := &flowTable{}
		st, err := flowTableProgram(tab, seed, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tab.slots) < flowMinSlots<<8 {
			t.Fatalf("seed %d: the table ended at %d slots: the program did not cross several doublings", seed, len(tab.slots))
		}
		t.Logf("seed %d: %+v", seed, st)
		if st.twoGroupRuns == 0 || st.repeatRuns == 0 || st.midRunDoublings == 0 || st.zeroKeys == 0 || st.absentGets < ops/10 {
			t.Fatalf("seed %d: %+v: the program missed a case it exists for", seed, st)
		}
		if _, err := flowTableProgram(&protoBlind{}, seed, ops); err == nil {
			t.Fatalf("seed %d: a table blind to the proto byte passed the differential", seed)
		}
	}
	var empty flowTable
	empty.swapRun(nil, pkt.FlowKeyLen, nil)
	if empty.get(make([]byte, pkt.FlowKeyLen)) != 0 || empty.slots != nil || flowSlotsFor(0) != 0 {
		t.Fatal("an empty table answers or holds something")
	}
}

// TestFlowTableSeedIsPerTable: two tables built by the same program hold
// the same contents in different slots — the hash is keyed per table, so
// a sender cannot precompute colliding flows.
func TestFlowTableSeedIsPerTable(t *testing.T) {
	var a, b flowTable
	for _, tab := range []*flowTable{&a, &b} {
		if _, err := flowTableProgram(tab, 7, 20_000); err != nil {
			t.Fatal(err)
		}
	}
	contents := func(tab *flowTable) (out []flowSlot, layout []int) {
		for i, sl := range tab.slots {
			if sl.head != 0 {
				out, layout = append(out, sl), append(layout, i)
			}
		}
		slices.SortFunc(out, func(x, y flowSlot) int { return slices.Compare(x.key[:], y.key[:]) })
		return out, layout
	}
	ca, la := contents(&a)
	cb, lb := contents(&b)
	if !slices.Equal(ca, cb) {
		t.Fatal("the same program left different contents in two tables")
	}
	if slices.Equal(la, lb) {
		t.Fatalf("two tables placed %d flows in the same slots: the hash is not seeded per table", len(la))
	}
}
