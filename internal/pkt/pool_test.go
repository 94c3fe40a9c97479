package pkt

import (
	"reflect"
	"testing"
	"unsafe"
)

func TestPoolGetNumbersZeroedPackets(t *testing.T) {
	pl := NewPool()
	a := pl.Get()
	if a.ID != 1 {
		t.Fatalf("first packet has ID %d, want 1", a.ID)
	}
	a.Kind, a.WireLen, a.TTL, a.HasSeqTag, a.PFC = KindPFC, 1500, 64, true, Pause(3, 1)
	pl.Put(a)
	b := pl.Get()
	if b != a {
		t.Fatal("Get did not reuse the released packet")
	}
	if want := (Packet{ID: 2}); !reflect.DeepEqual(*b, want) {
		t.Errorf("reused packet %+v, want zeroed with ID 2", *b)
	}
}

func TestPoolPutKeepsPayloadBytes(t *testing.T) {
	pl := NewPool()
	payload := []byte{1, 2, 3}
	copies := []*Packet{pl.Get(), pl.Get()}
	for _, p := range copies {
		p.Payload = payload
	}
	pl.Put(copies[0])
	if copies[1].Payload[0] != 1 || payload[2] != 3 {
		t.Errorf("Put changed a shared payload: %v", payload)
	}
	if copies[0].Payload != nil {
		t.Error("released packet still references its payload")
	}
}

func TestPoolKeepsAtMostCap(t *testing.T) {
	pl := NewPool()
	for i := 0; i < poolCap+10; i++ {
		pl.Put(&Packet{})
	}
	if n := len(pl.free); n != poolCap {
		t.Errorf("free list holds %d packets, want the cap %d", n, poolCap)
	}
}

func TestPoolDoublePutPanics(t *testing.T) {
	full := NewPool()
	for i := 0; i < poolCap; i++ {
		full.Put(&Packet{})
	}
	checked := NewPool()
	checked.Check()
	for name, pl := range map[string]*Pool{"kept": NewPool(), "beyond the cap": full, "checked": checked} {
		p := pl.Get()
		pl.Put(p)
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: a second Put of one packet did not panic", name)
				}
			}()
			pl.Put(p)
		}()
	}
}

func TestCheckedPoolPoisonsAndNeverReuses(t *testing.T) {
	pl := NewPool()
	pl.Check()
	a := pl.Get()
	a.Kind, a.TTL = KindData, 64
	pl.Put(a)
	if !reflect.DeepEqual(*a, poisoned) {
		t.Errorf("released packet %+v, want poisoned", *a)
	}
	b := pl.Get()
	if b == a {
		t.Fatal("checking pool reused a released packet")
	}
	if b.ID != 2 || b.Kind != KindData || b.WireLen != 0 {
		t.Errorf("new packet %+v, want zeroed with ID 2", *b)
	}
}

func TestNilPoolPutIsNoop(t *testing.T) {
	var pl *Pool
	p := &Packet{WireLen: 64}
	pl.Put(p)
	pl.Put(p)
	if p.WireLen != 64 {
		t.Error("nil pool changed the packet")
	}
}

// TestFlowHashFollowsFlow: a packet's cached flow hash is its flow's hash
// however the packet came to be — from a pool, as a literal, as a clone or
// decoded into a reused packet — and the cache costs the packet no size.
func TestFlowHashFollowsFlow(t *testing.T) {
	if n := unsafe.Sizeof(Packet{}); n > 120 {
		t.Errorf("Packet is %d B, want <= 120", n)
	}
	a, b := testFlow(), testFlow().Reverse()
	check := func(what string, p *Packet) {
		t.Helper()
		if got, want := p.FlowHash(), p.Flow.Hash(); got != want {
			t.Errorf("%s: FlowHash %#x, want %#x", what, got, want)
		}
	}

	pl := NewPool()
	p := pl.Get()
	p.Flow = a
	check("pool packet", p)
	pl.Put(p)
	if q := pl.Get(); q != p || q.hashed {
		t.Fatal("a recycled packet kept its predecessor's hash")
	}
	p.Flow = b
	check("recycled pool packet", p)

	lit := &Packet{Flow: a}
	check("literal", lit)

	wire := MarshalDataFrame(&Packet{Flow: b, WireLen: 128, TTL: 64}, nil)
	if err := UnmarshalDataFrame(wire, lit); err != nil {
		t.Fatal(err)
	}
	check("frame decoded into a reused packet", lit)
}

// TestCheckedPoolCatchesChangedFlow: a packet whose flow changed after a
// hop cached its hash panics when a checking pool takes it back.
func TestCheckedPoolCatchesChangedFlow(t *testing.T) {
	pl := NewPool()
	pl.Check()
	p := pl.Get()
	p.Flow = testFlow()
	p.FlowHash()
	p.Flow.DstPort++
	defer func() {
		if recover() == nil {
			t.Error("Put of a packet with a stale flow hash did not panic")
		}
	}()
	pl.Put(p)
}
