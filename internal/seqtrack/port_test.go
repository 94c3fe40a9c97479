package seqtrack

import (
	"slices"
	"testing"

	"netseer/internal/pkt"
)

// TestPortTagsOnlyDataAndProbes: control frames cross the link untagged,
// and Strip leaves an untagged frame alone.
func TestPortTagsOnlyDataAndProbes(t *testing.T) {
	up, down := NewPort(4), NewPort(4)
	for _, k := range []pkt.Kind{pkt.KindPFC, pkt.KindLossNotify} {
		p := &pkt.Packet{Kind: k, WireLen: 64}
		up.Tag(p)
		if p.HasSeqTag || p.WireLen != 64 {
			t.Errorf("%v frame tagged", k)
		}
		if _, ok := down.Strip(p); ok || p.WireLen != 64 {
			t.Errorf("Strip changed an untagged %v frame", k)
		}
	}
	for i, k := range []pkt.Kind{pkt.KindData, pkt.KindProbe} {
		p := &pkt.Packet{Kind: k, WireLen: 100}
		up.Tag(p)
		if !p.HasSeqTag || p.SeqTag != uint32(i) || p.WireLen != 100+pkt.NetSeerTagLen {
			t.Errorf("%v frame: tag %v/%d, %d B", k, p.HasSeqTag, p.SeqTag, p.WireLen)
		}
		if _, ok := down.Strip(p); ok || p.HasSeqTag || p.WireLen != 100 {
			t.Errorf("%v frame not stripped cleanly", k)
		}
	}
}

// TestPortQueuesOneSlotPerNotification: a second gap notified while the
// first is still being resolved waits whole, behind it, in order.
func TestPortQueuesOneSlotPerNotification(t *testing.T) {
	p := NewPort(8)
	for id := 0; id < 8; id++ {
		p.Tag(&pkt.Packet{Kind: pkt.KindData, Flow: fk(uint32(id)), WireLen: 64})
	}
	if _, ok := p.Accept([]byte{1, 2, 3}); ok {
		t.Error("truncated payload accepted")
	}
	for _, n := range []Notification{{FromID: 1, ToID: 2}, {FromID: 4, ToID: 6}} {
		if _, ok := p.Accept(n.AppendTo(nil)); !ok {
			t.Fatalf("%+v not accepted", n)
		}
	}
	if p.queue.Len() != 1 {
		t.Fatalf("%d intervals queued behind the one in progress, want 1", p.queue.Len())
	}
	var got []uint32
	for p.Pending() {
		e, ok := p.Resolve()
		if !ok || e.Flow != fk(e.ID) {
			t.Fatalf("Resolve = %+v, %v", e, ok)
		}
		got = append(got, e.ID)
	}
	if want := []uint32{1, 2, 4, 5, 6}; !slices.Equal(got, want) {
		t.Fatalf("resolved %v, want %v", got, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("Resolve with nothing pending did not panic")
		}
	}()
	p.Resolve()
}
