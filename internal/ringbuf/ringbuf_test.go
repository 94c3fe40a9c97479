package ringbuf

import (
	"testing"
	"testing/quick"
	"unsafe"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func fk(n uint32) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: n, DstIP: n ^ 0xffff, SrcPort: uint16(n), DstPort: 80, Proto: pkt.ProtoUDP}
}

func TestRecordLookup(t *testing.T) {
	r := New(8)
	r.Record(5, fk(5), 100)
	e, ok := r.Lookup(5)
	if !ok || e.Flow != fk(5) || e.ID != 5 || e.WireLen != 100 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	r := New(8)
	if _, ok := r.Lookup(3); ok {
		t.Error("Lookup hit on empty ring")
	}
}

func TestOverwriteNeverMisattributes(t *testing.T) {
	// The paper's guarantee: after the ring wraps, a lookup for the old ID
	// must fail rather than return the packet that overwrote it.
	r := New(4)
	r.Record(1, fk(1), 64)
	r.Record(5, fk(5), 64) // 5 mod 4 == 1: overwrites slot of ID 1
	if _, ok := r.Lookup(1); ok {
		t.Error("Lookup(1) returned an entry after its slot was overwritten")
	}
	e, ok := r.Lookup(5)
	if !ok || e.Flow != fk(5) {
		t.Error("Lookup(5) should still succeed")
	}
}

func TestLookupRangeBasic(t *testing.T) {
	r := New(16)
	for id := uint32(0); id < 10; id++ {
		r.Record(id, fk(id), 64)
	}
	found, unrec := r.LookupRange(3, 6)
	if unrec != 0 || len(found) != 4 {
		t.Fatalf("found %d unrec %d", len(found), unrec)
	}
	for i, e := range found {
		if e.ID != uint32(3+i) {
			t.Errorf("entry %d has ID %d, want in-order %d", i, e.ID, 3+i)
		}
	}
}

func TestLookupRangeWraparound(t *testing.T) {
	r := New(16)
	ids := []uint32{0xfffffffe, 0xffffffff, 0, 1}
	for _, id := range ids {
		r.Record(id, fk(id), 64)
	}
	found, unrec := r.LookupRange(0xfffffffe, 1)
	if unrec != 0 || len(found) != 4 {
		t.Fatalf("wraparound: found %d unrec %d", len(found), unrec)
	}
	for i, e := range found {
		if e.ID != ids[i] {
			t.Errorf("entry %d ID = %#x, want %#x", i, e.ID, ids[i])
		}
	}
}

func TestLookupRangePartialOverwrite(t *testing.T) {
	r := New(4)
	for id := uint32(0); id < 8; id++ { // IDs 0–3 overwritten by 4–7
		r.Record(id, fk(id), 64)
	}
	found, unrec := r.LookupRange(2, 5)
	if len(found) != 2 || unrec != 2 {
		t.Fatalf("found %d unrec %d, want 2/2", len(found), unrec)
	}
	for _, e := range found {
		if e.ID != 4 && e.ID != 5 {
			t.Errorf("recovered wrong ID %d", e.ID)
		}
	}
}

func TestLookupRangeLongerThanRing(t *testing.T) {
	r := New(4)
	for id := uint32(100); id < 104; id++ {
		r.Record(id, fk(id), 64)
	}
	// Request 100 IDs; only the last 4 can possibly exist.
	found, unrec := r.LookupRange(4, 103)
	if len(found) != 4 {
		t.Errorf("found %d, want 4", len(found))
	}
	if unrec != 96 {
		t.Errorf("unrecovered = %d, want 96", unrec)
	}
}

func TestLookupRangeSingleton(t *testing.T) {
	r := New(4)
	r.Record(9, fk(9), 64)
	found, unrec := r.LookupRange(9, 9)
	if len(found) != 1 || unrec != 0 {
		t.Fatalf("singleton range: found %d unrec %d", len(found), unrec)
	}
}

// TestNoWrongPacketProperty: for arbitrary record/lookup interleavings,
// every entry returned by LookupRange has an ID inside the requested
// interval and a flow matching what was recorded for that ID.
func TestNoWrongPacketProperty(t *testing.T) {
	f := func(size uint8, n uint16, fromOff, width uint8) bool {
		r := New(int(size%64) + 1)
		truth := make(map[uint32]pkt.FlowKey)
		for id := uint32(0); id < uint32(n%500)+1; id++ {
			r.Record(id, fk(id*7), 64)
			truth[id] = fk(id * 7)
		}
		from := uint32(fromOff)
		to := from + uint32(width%100)
		found, _ := r.LookupRange(from, to)
		for _, e := range found {
			if e.ID < from || e.ID > to {
				return false
			}
			if truth[e.ID] != e.Flow {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestStats(t *testing.T) {
	r := New(4)
	r.Record(0, fk(0), 64)
	r.Lookup(0)
	r.Lookup(1)
	rec, hits, misses := r.Stats()
	if rec != 1 || hits != 1 || misses != 1 {
		t.Errorf("stats = %d %d %d", rec, hits, misses)
	}
}

func TestReset(t *testing.T) {
	r := New(4)
	r.Record(0, fk(0), 64)
	r.Reset()
	if _, ok := r.Lookup(0); ok {
		t.Error("Lookup hit after Reset")
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New(0) did not panic")
		}
	}()
	New(0)
}

func TestConsecutiveDropCapacity(t *testing.T) {
	// Paper Fig. 15(b): a ring of N slots recovers up to N consecutive
	// drops if the notification arrives before N more packets are sent.
	const slots = 1000
	r := New(slots)
	rng := sim.NewStream(5, "cap")
	// Send 5000 packets; the last 1000 (IDs 4000–4999) are "in flight
	// dropped" and no later packet overwrites them.
	for id := uint32(0); id < 5000; id++ {
		r.Record(id, fk(rng.Uint32()), 1024)
	}
	found, unrec := r.LookupRange(4000, 4999)
	if len(found) != slots || unrec != 0 {
		t.Errorf("recovered %d of %d consecutive drops (unrec %d)", len(found), slots, unrec)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := New(1024)
	k := fk(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(uint32(i), k, 724)
	}
}

func BenchmarkLookupRange64(b *testing.B) {
	r := New(1024)
	for id := uint32(0); id < 1024; id++ {
		r.Record(id, fk(id), 724)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		found, _ := r.LookupRange(100, 163)
		if len(found) != 64 {
			b.Fatal("bad range result")
		}
	}
}

// TestSlotIsBytesPerSlot pins a slot at the hardware layout Fig. 15(b)'s
// SRAM accounting charges, its key in the canonical wire encoding.
func TestSlotIsBytesPerSlot(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != BytesPerSlot {
		t.Fatalf("a slot is %d B, BytesPerSlot is %d", n, BytesPerSlot)
	}
	r := New(4)
	k := pkt.FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 0x090a, DstPort: 0x0b0c, Proto: 0x0d}
	r.Record(2, k, 64)
	if got, want := r.slots[2].flow[:], k.AppendWire(nil); string(got) != string(want) {
		t.Fatalf("slot key %x, wire encoding %x", got, want)
	}
}
