package seqtrack

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
	r := NewRing(8)
	r.Record(5, fk(5), 100)
	e, ok := r.Lookup(5)
	if !ok || e.Flow != fk(5) || e.ID != 5 || e.WireLen != 100 {
		t.Fatalf("Lookup = %+v, %v", e, ok)
	}
}

func TestLookupMissOnEmpty(t *testing.T) {
	r := NewRing(8)
	if _, ok := r.Lookup(3); ok {
		t.Error("Lookup hit on empty ring")
	}
}

func TestOverwriteNeverMisattributes(t *testing.T) {
	// The paper's guarantee: after the ring wraps, a lookup for the old ID
	// must fail rather than return the packet that overwrote it.
	r := NewRing(4)
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

// TestNoWrongPacketProperty: for arbitrary record/lookup interleavings,
// every entry Lookup returns has the requested ID and the flow recorded
// for that ID.
func TestNoWrongPacketProperty(t *testing.T) {
	f := func(size uint8, n uint16, fromOff, width uint8) bool {
		r := NewRing(int(size%64) + 1)
		truth := make(map[uint32]pkt.FlowKey)
		for id := uint32(0); id < uint32(n%500)+1; id++ {
			r.Record(id, fk(id*7), 64)
			truth[id] = fk(id * 7)
		}
		from := uint32(fromOff)
		for id := from; id <= from+uint32(width%100); id++ {
			if e, ok := r.Lookup(id); ok && (e.ID != id || truth[id] != e.Flow) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestConsecutiveDropCapacity(t *testing.T) {
	// Paper Fig. 15(b): a ring of N slots recovers up to N consecutive
	// drops if the notification arrives before N more packets are sent.
	const slots = 1000
	r := NewRing(slots)
	rng := sim.NewStream(5, "cap")
	// Send 5000 packets; the last 1000 (IDs 4000–4999) are "in flight
	// dropped" and no later packet overwrites them.
	for id := uint32(0); id < 5000; id++ {
		r.Record(id, fk(rng.Uint32()), 1024)
	}
	found := 0
	for id := uint32(4000); id < 5000; id++ {
		if _, ok := r.Lookup(id); ok {
			found++
		}
	}
	if found != slots {
		t.Errorf("recovered %d of %d consecutive drops", found, slots)
	}
}

func BenchmarkRecord(b *testing.B) {
	r := NewRing(1024)
	k := fk(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(uint32(i), k, 724)
	}
}

// TestSlotIsBytesPerSlot pins a slot at the 20 B hardware layout, its
// key in the canonical wire encoding.
func TestSlotIsBytesPerSlot(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 20 {
		t.Fatalf("a slot is %d B, want 20", n)
	}
	r := NewRing(4)
	k := pkt.FlowKey{SrcIP: 0x01020304, DstIP: 0x05060708, SrcPort: 0x090a, DstPort: 0x0b0c, Proto: 0x0d}
	r.Record(2, k, 64)
	if got, want := r.slots[2].flow[:], k.AppendWire(nil); string(got) != string(want) {
		t.Fatalf("slot key %x, wire encoding %x", got, want)
	}
}
