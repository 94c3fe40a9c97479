package collector

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netseer/internal/pkt"
)

// headTable is what the differential drives: the flow table, or a mutant
// of it.
type headTable interface {
	swap(key []byte, head uint32) uint32
	get(key []byte) uint32
}

// protoBlind is the seeded mutation: a table that compares (and hashes)
// 12 of the 13 key bytes.
type protoBlind struct{ flowTable }

func blind(key []byte) []byte {
	k := flowKey(key)
	k[pkt.FlowKeyLen-1] = 0
	return k[:]
}
func (t *protoBlind) swap(key []byte, head uint32) uint32 { return t.flowTable.swap(blind(key), head) }
func (t *protoBlind) get(key []byte) uint32               { return t.flowTable.get(blind(key)) }

// flowTableProgram runs ops seeded find-or-insert and get operations
// against tab and a map[pkt.FlowKey]uint32 and returns the first
// disagreement. The population holds the all-zero key (agg-spike events
// carry it) and, for every tuple, flows that differ only in the proto
// byte; it grows as the program runs, so the table doubles several times
// with lookups of present and absent keys in between.
func flowTableProgram(tab headTable, seed int64, ops int) error {
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
	var key flowKey
	for op := 0; op < ops; op++ {
		population := 16 + op/4 // 200 k ops reach 50 k keys: a dozen doublings
		f := draw(population)
		f.PutWire(key[:])
		if r.Intn(3) == 0 {
			if got, want := tab.get(key[:]), model[f]; got != want {
				return fmt.Errorf("op %d: get(%v) = %d, map %d", op, f, got, want)
			}
			continue
		}
		head := 1 + uint32(op)
		if got, want := tab.swap(key[:], head), model[f]; got != want {
			return fmt.Errorf("op %d: swap(%v) returned %d, map held %d", op, f, got, want)
		}
		model[f] = head
	}
	for f, want := range model {
		f.PutWire(key[:])
		if got := tab.get(key[:]); got != want {
			return fmt.Errorf("final get(%v) = %d, map %d", f, got, want)
		}
	}
	if ft, ok := tab.(*flowTable); ok {
		if ft.n != len(model) || len(ft.slots) != flowSlotsFor(len(model)) {
			return fmt.Errorf("table holds %d flows in %d slots, map %d (want %d slots)", ft.n, len(ft.slots), len(model), flowSlotsFor(len(model)))
		}
	}
	return nil
}

// TestFlowTableAgainstMap is the flow table's differential: seeded
// programs of ≥ 200 k mixed operations agree with a Go map at every step,
// and the same programs catch a table that ignores the proto byte.
func TestFlowTableAgainstMap(t *testing.T) {
	const ops = 200_000
	for seed := int64(1); seed <= 3; seed++ {
		tab := &flowTable{}
		if err := flowTableProgram(tab, seed, ops); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(tab.slots) < flowMinSlots<<8 {
			t.Fatalf("seed %d: the table ended at %d slots: the program did not cross several doublings", seed, len(tab.slots))
		}
		if err := flowTableProgram(&protoBlind{}, seed, ops); err == nil {
			t.Fatalf("seed %d: a table blind to the proto byte passed the differential", seed)
		}
	}
	var empty flowTable
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
		if err := flowTableProgram(tab, 7, 20_000); err != nil {
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
