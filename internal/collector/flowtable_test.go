package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// headTable is what the differential drives: the flow table, or a mutant
// of it.
type headTable interface {
	swapRun(keys []byte, stride int, heads, ids []uint32)
	get(key []byte) uint32
	table() *flowTable
}

func (t *flowTable) table() *flowTable { return t }

// get returns the head stored for key, 0 if there is none.
func (t *flowTable) get(key []byte) uint32 {
	return t.lookup(key).head
}

// protoBlind is the seeded mutation: a table that compares (and hashes)
// 12 of the 13 key bytes.
type protoBlind struct{ flowTable }

func blind(key []byte) []byte {
	k := flowKey(key)
	k[pkt.FlowKeyLen-1] = 0
	return k[:]
}
func (t *protoBlind) get(key []byte) uint32 { return t.flowTable.get(blind(key)) }
func (t *protoBlind) swapRun(keys []byte, stride int, heads, ids []uint32) {
	keys = slices.Clone(keys)
	for i := range heads {
		keys[i*stride+pkt.FlowKeyLen-1] = 0
	}
	t.flowTable.swapRun(keys, stride, heads, ids)
}

// programStats counts what a flowTableProgram exercised.
type programStats struct {
	runs, longRuns, repeatRuns, midRunDoublings, zeroKeys, gets, absentGets int
}

// maxRun bounds a program's runs, past two full exporter batches of
// fevent.DefaultBatchSize records.
const maxRun = 128

// flowTableProgram runs seeded runs of find-or-insert — 1 to maxRun keys
// each, some longer than one full exporter batch, at the strides of a
// bare key, a snapshot's flow row and a record, keys repeated
// within a run — each followed by half as many single gets, against tab
// and a map[pkt.FlowKey]uint32 of heads beside a list of flows in
// first-seen order, ops keys in all, and returns the first disagreement:
// a head, an id that is not the flow's place in that list, or an id
// whose dictionary key is not the flow's. After
// every run the table must be exactly the size its flow count calls for. The population holds the all-zero key (agg-spike
// events carry it) and, for every tuple, flows that differ only in the
// proto byte; it grows as the program runs, so the table doubles several
// times, inside runs as well as between them. Gets draw from twice the
// population, so at least half of them ask for a flow never stored.
func flowTableProgram(tab headTable, seed int64, ops int) (programStats, error) {
	r := rand.New(rand.NewSource(seed))
	model, ids := map[pkt.FlowKey]uint32{}, map[pkt.FlowKey]uint32{}
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
		flows [maxRun]pkt.FlowKey
		heads [maxRun]uint32
		fids  [maxRun]uint32
	)
	for op := 0; op < ops; {
		population := 16 + op/4 // 200 k ops reach 50 k keys: a dozen doublings
		n := 1 + r.Intn(maxRun)
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
		before := len(ft.index)
		if room := before/4*3 - len(ft.keys); before > 0 && room > 0 && fresh > room {
			st.midRunDoublings++ // the insert that doubles the table is not the run's first
		}
		want := heads
		tab.swapRun(keys, stride, heads[:n], fids[:n])
		for i, f := range flows[:n] {
			if got := heads[i]; got != model[f] {
				return st, fmt.Errorf("op %d: key %d of a %d-key run (%v) replaced head %d, map held %d", op, i, n, f, got, model[f])
			}
			if _, ok := ids[f]; !ok {
				ids[f] = uint32(len(ids))
			}
			if fids[i] != ids[f] {
				return st, fmt.Errorf("op %d: key %d of a %d-key run (%v) has id %d, first seen as flow %d", op, i, n, f, fids[i], ids[f])
			}
			if got, _ := pkt.FlowKeyFromWire(tab.table().keys[fids[i]][:]); got != f {
				return st, fmt.Errorf("op %d: key %d of a %d-key run (%v) has id %d, which names %v", op, i, n, f, fids[i], got)
			}
			model[f] = want[i]
		}
		if len(ft.index) != flowSlotsFor(len(ft.keys)) || cap(ft.keys) != len(ft.index)/4*3 {
			return st, fmt.Errorf("op %d: %d flows in %d slots, dictionary capacity %d after a %d-key run, want %d slots", op, len(ft.keys), len(ft.index), cap(ft.keys), n, flowSlotsFor(len(ft.keys)))
		}
		st.runs++
		if n > fevent.DefaultBatchSize {
			st.longRuns++
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
	if ft := tab.table(); len(ft.keys) != len(model) {
		return st, fmt.Errorf("table holds %d flows, map %d", len(ft.keys), len(model))
	}
	return st, nil
}

// TestFlowTableAgainstMap is the flow dictionary's differential: seeded
// programs of ≥ 200 k keys in runs and lookups agree with a Go map and a
// first-seen list at every step — runs that repeat a key, runs that double the table part
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
		if len(tab.index) < flowMinSlots<<8 {
			t.Fatalf("seed %d: the table ended at %d slots: the program did not cross several doublings", seed, len(tab.index))
		}
		t.Logf("seed %d: %+v", seed, st)
		if st.longRuns == 0 || st.repeatRuns == 0 || st.midRunDoublings == 0 || st.zeroKeys == 0 || st.absentGets < ops/10 {
			t.Fatalf("seed %d: %+v: the program missed a case it exists for", seed, st)
		}
		if _, err := flowTableProgram(&protoBlind{}, seed, ops); err == nil {
			t.Fatalf("seed %d: a table blind to the proto byte passed the differential", seed)
		}
	}
	var empty flowTable
	empty.swapRun(nil, pkt.FlowKeyLen, nil, nil)
	if empty.get(make([]byte, pkt.FlowKeyLen)) != 0 || empty.index != nil || empty.keys != nil || flowSlotsFor(0) != 0 {
		t.Fatal("an empty table answers or holds something")
	}
}

// TestFlowTableSeedIsPerTable: two tables built by the same program
// hold the same dictionary, flow for flow, but place it in different
// index slots — the hash is keyed per table, so a sender cannot
// precompute colliding flows.
func TestFlowTableSeedIsPerTable(t *testing.T) {
	var a, b flowTable
	for _, tab := range []*flowTable{&a, &b} {
		if _, err := flowTableProgram(tab, 7, 20_000); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(a.keys, b.keys) {
		t.Fatal("the same program left different dictionaries in two tables")
	}
	if a.seed == b.seed || slices.Equal(a.index, b.index) {
		t.Fatalf("two tables placed %d flows in the same slots: the hash is not seeded per table", len(a.keys))
	}
}

// TestFlowHashHasNoSeedFreeCollisions inserts keys that share bytes
// 5..12 — the second word of the hash's first multiply — and differ only
// in bytes 0..4. Whatever the shared bytes, the keys hash apart and no
// probe cluster grows long. A hash whose factor a public constant could
// zero (a key word xored with a constant alone) sends every such key to
// one cell, whatever the seed, and one cluster makes inserts and replay
// cost O(flows²).
func TestFlowHashHasNoSeedFreeCollisions(t *testing.T) {
	const n = 4096
	for _, shared := range []uint64{0xa0761d6478bd642f, 0xe7037ed1a0b428db, 0, ^uint64(0)} {
		var tab flowTable
		keys := make([]byte, n*pkt.FlowKeyLen)
		heads, ids := make([]uint32, n), make([]uint32, n)
		for i := range n {
			k := keys[i*pkt.FlowKeyLen:]
			binary.BigEndian.PutUint32(k, uint32(i))
			k[4] = byte(i)
			binary.LittleEndian.PutUint64(k[5:], shared)
			heads[i] = uint32(i + 1)
		}
		tab.swapRun(keys, pkt.FlowKeyLen, heads, ids)
		hashes := map[uint64]bool{}
		for i := range tab.keys {
			hashes[tab.hash(&tab.keys[i])] = true
		}
		mask, worst := uint64(len(tab.index)-1), 0
		for i, c := range tab.index {
			if c.id != 0 {
				worst = max(worst, int((uint64(i)-tab.hash(&tab.keys[c.id-1]))&mask))
			}
		}
		if len(tab.keys) != n || len(hashes) != n || worst > 64 {
			t.Fatalf("bytes 5..12 fixed to %#x: %d flows, %d distinct hashes, a key %d cells from its home", shared, len(tab.keys), len(hashes), worst)
		}
	}
}

// TestFlowsAreFirstSeenOrder feeds two stores the same batches: Flows
// lists the flows in the order the batches first carried them, in both
// stores — whatever their hash seeds — and again after a snapshot round
// trip, so the flows verb prints one order for one history.
func TestFlowsAreFirstSeenOrder(t *testing.T) {
	p := newPair(t, 41)
	a, b := NewStore(), NewStore()
	var want []pkt.FlowKey
	first := map[pkt.FlowKey]bool{}
	for seq := uint64(1); seq <= 40; seq++ {
		ts := sim.Time(seq) * sim.Millisecond
		batch := &fevent.Batch{SwitchID: uint16(1 + seq%4), Timestamp: ts, Seq: seq, Events: p.events(fevent.DefaultBatchSize, 600, 4, ts, 0)}
		a.Deliver(batch)
		b.Deliver(batch)
		for _, e := range batch.Events {
			if !first[e.Flow] {
				first[e.Flow] = true
				want = append(want, e.Flow)
			}
		}
	}
	if len(want) < 8*flowMinSlots {
		t.Fatalf("%d flows: the dictionary did not grow several times", len(want))
	}
	reloaded := NewStore()
	if err := reloaded.LoadSnapshot(a.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	for name, st := range map[string]*Store{"first store": a, "second store": b, "reloaded store": reloaded} {
		if got := st.Flows(); !slices.Equal(got, want) {
			t.Errorf("%s lists %d flows, not the %d in first-seen order", name, len(got), len(want))
		}
	}
}

// recordImageEvents returns events of every type over three flows that
// differ only in the proto byte, a drop of every code on each, and
// agg-spikes over the all-zero key. Each sets exactly the fields its
// type's record carries, so it is its own record image.
func recordImageEvents(sw uint16, ts sim.Time) []fevent.Event {
	var out []fevent.Event
	add := func(e fevent.Event) {
		i := len(out)
		e.SwitchID, e.Timestamp = sw, ts
		e.Count, e.Hash = uint16(1+7*i), 0x9e3779b9*uint32(i+1)
		switch e.Type {
		case fevent.TypeDrop:
			e.IngressPort, e.EgressPort, e.ACLRule = uint8(i), uint8(i+1), uint8(i+2)
		case fevent.TypeCongestion:
			e.EgressPort, e.Queue, e.QueueLatencyUs = uint8(i), uint8(i%8), uint16(100+i)
		case fevent.TypePathChange, fevent.TypeHeavyHitter:
			e.IngressPort, e.EgressPort = uint8(i), uint8(i+1)
		case fevent.TypePause:
			e.EgressPort, e.Queue = uint8(i), uint8(i%8)
		case fevent.TypeTopKChurn:
			e.EgressPort, e.SketchErr = uint8(i), uint16(300+i)
		case fevent.TypeAggSpike:
			e.Flow, e.EgressPort, e.Window = pkt.FlowKey{}, uint8(i), uint16(40+i)
		}
		out = append(out, e)
	}
	for _, proto := range []uint8{pkt.ProtoTCP, pkt.ProtoUDP, 0} {
		f := modelFlow(3)
		f.Proto = proto
		for _, typ := range fevent.Types {
			add(fevent.Event{Type: typ, Flow: f})
		}
		for c := fevent.DropNone; c <= fevent.DropCorruption; c++ {
			add(fevent.Event{Type: fevent.TypeDrop, Flow: f, DropCode: c})
		}
	}
	return out
}

// TestStoredEventIsItsRecordImage: whichever way an event comes in —
// Deliver, DeliverPayload, ImportImage, what RemoveImage leaves, and each
// of those reloaded from a snapshot — Query returns it with the switch
// and stamp it came with and an AppendRecord byte-equal to the 24 B
// record delivered, its hash made its flow key's CRC, and a query by flow
// tells apart keys that differ only in the proto byte.
func TestStoredEventIsItsRecordImage(t *testing.T) {
	evs := recordImageEvents(4, 70)
	batch := &fevent.Batch{SwitchID: 4, Timestamp: 70, Seq: 1, Events: evs}
	byDeliver, byPayload, byAdd, byRemove := NewStore(), NewStore(), NewStore(), NewStore()
	byDeliver.Deliver(batch)
	view, err := ViewPayload(wirePayload(t, batch))
	if err != nil {
		t.Fatal(err)
	}
	byPayload.DeliverPayload(&view)
	importEvents(t, byAdd, evs)
	later := recordImageEvents(5, 90)
	importEvents(t, byRemove, evs)
	importEvents(t, byRemove, later)
	var gone, kept []fevent.Event
	for i := range evs {
		if i%2 == 1 {
			gone = append(gone, evs[i])
		} else {
			kept = append(kept, evs[i])
		}
	}
	if n := removeEvents(t, byRemove, gone); n != len(gone) {
		t.Fatalf("RemoveImage removed %d of %d", n, len(gone))
	}
	kept = append(kept, later...)

	check := func(name string, st *Store, want []fevent.Event) {
		t.Helper()
		got := st.Query(Filter{})
		if len(got) != len(want) {
			t.Fatalf("%s: %d events stored, %d delivered", name, len(got), len(want))
		}
		for i := range got {
			w := canonical(want[i])
			if g, wr := got[i].AppendRecord(nil), w.AppendRecord(nil); !bytes.Equal(g, wr) || got[i].SwitchID != w.SwitchID || got[i].Timestamp != w.Timestamp {
				t.Fatalf("%s: event %d is %x from switch %d at %v, delivered %x from switch %d at %v", name, i, g, got[i].SwitchID, got[i].Timestamp, wr, w.SwitchID, w.Timestamp)
			}
		}
		for _, f := range st.Flows() {
			n := 0
			for i := range want {
				if want[i].Flow == f {
					n++
				}
			}
			if c := st.Count(Filter{Flow: &f}); c != n {
				t.Fatalf("%s: flow %v counts %d events, %d delivered", name, f, c, n)
			}
		}
	}
	for _, tc := range []struct {
		name string
		st   *Store
		want []fevent.Event
	}{
		{"Deliver", byDeliver, evs},
		{"DeliverPayload", byPayload, evs},
		{"ImportImage", byAdd, evs},
		{"RemoveImage", byRemove, kept},
	} {
		check(tc.name, tc.st, tc.want)
		reloaded := NewStore()
		if err := reloaded.LoadSnapshot(tc.st.EncodeSnapshot()); err != nil {
			t.Fatal(err)
		}
		check(tc.name+", reloaded", reloaded, tc.want)
	}
	if got := len(byDeliver.Flows()); got != 4 {
		t.Fatalf("%d flows stored, want 4: three proto variants and the zero key", got)
	}
}
