package pkt

import (
	"errors"
	"testing"
	"testing/quick"
)

func testFlow() FlowKey {
	return FlowKey{IP(10, 0, 0, 1), IP(10, 0, 1, 2), 40000, 80, ProtoTCP}
}

func TestDataFrameRoundTrip(t *testing.T) {
	p := &Packet{
		Flow: testFlow(), WireLen: 724, TTL: 63, Priority: 3,
		SeqTag: 0xdeadbeef, HasSeqTag: true,
	}
	wire := MarshalDataFrame(p, nil)
	if len(wire) != p.WireLen {
		t.Fatalf("wire length = %d, want %d", len(wire), p.WireLen)
	}
	var q Packet
	if err := UnmarshalDataFrame(wire, &q); err != nil {
		t.Fatal(err)
	}
	if q.Flow != p.Flow || q.TTL != p.TTL || q.Priority != p.Priority ||
		!q.HasSeqTag || q.SeqTag != p.SeqTag || q.WireLen != p.WireLen {
		t.Errorf("round trip: got %+v want %+v", q, *p)
	}
}

func TestDataFrameWithoutTag(t *testing.T) {
	p := &Packet{Flow: testFlow(), WireLen: 128, TTL: 10}
	var q Packet
	if err := UnmarshalDataFrame(MarshalDataFrame(p, nil), &q); err != nil {
		t.Fatal(err)
	}
	if q.HasSeqTag {
		t.Error("tag appeared from nowhere")
	}
	if q.Flow != p.Flow {
		t.Errorf("flow = %v, want %v", q.Flow, p.Flow)
	}
}

func TestDataFrameUDP(t *testing.T) {
	flow := testFlow()
	flow.Proto = ProtoUDP
	p := &Packet{Flow: flow, WireLen: 200, TTL: 5, Priority: 1}
	var q Packet
	if err := UnmarshalDataFrame(MarshalDataFrame(p, nil), &q); err != nil {
		t.Fatal(err)
	}
	if q.Flow != flow || q.Priority != 1 {
		t.Errorf("round trip: got %+v", q)
	}
}

func TestDataFrameQuick(t *testing.T) {
	f := func(srcIP, dstIP uint32, sp, dp uint16, ttl uint8, prio uint8, tag uint32, hasTag bool, extra uint16, useUDP bool) bool {
		proto := ProtoTCP
		if useUDP {
			proto = ProtoUDP
		}
		p := &Packet{
			Flow:      FlowKey{srcIP, dstIP, sp, dp, proto},
			WireLen:   MinEthernetFrame + int(extra%1400),
			TTL:       ttl,
			Priority:  prio & 7,
			SeqTag:    tag,
			HasSeqTag: hasTag,
		}
		wire := MarshalDataFrame(p, nil)
		var q Packet
		if err := UnmarshalDataFrame(wire, &q); err != nil {
			return false
		}
		return q.Flow == p.Flow && q.TTL == p.TTL && q.Priority == p.Priority &&
			q.HasSeqTag == p.HasSeqTag && (!p.HasSeqTag || q.SeqTag == p.SeqTag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeFrameLayers(t *testing.T) {
	p := &Packet{Flow: testFlow(), WireLen: 100, TTL: 64, SeqTag: 7, HasSeqTag: true}
	wire := MarshalDataFrame(p, nil)
	var f Frame
	if err := DecodeFrame(wire, &f); err != nil {
		t.Fatal(err)
	}
	want := LayerEthernet | LayerNetSeerTag | LayerIPv4 | LayerTCP
	if !f.Layers.Has(want) {
		t.Errorf("layers = %b, want at least %b", f.Layers, want)
	}
	k, ok := f.FlowKey()
	if !ok || k != p.Flow {
		t.Errorf("FlowKey() = %v, %v", k, ok)
	}
}

func TestDecodeFrameVLAN(t *testing.T) {
	eth := Ethernet{EtherType: EtherTypeVLAN}
	vlan := VLAN{Priority: 5, ID: 42, EtherType: EtherTypeIPv4}
	ip := IPv4{TotalLen: 28, TTL: 9, Protocol: ProtoUDP, Src: 1, Dst: 2}
	udp := UDP{SrcPort: 7, DstPort: 8, Length: 8}
	wire := eth.AppendTo(nil)
	wire = vlan.AppendTo(wire)
	wire = ip.AppendTo(wire)
	wire = udp.AppendTo(wire)
	var f Frame
	if err := DecodeFrame(wire, &f); err != nil {
		t.Fatal(err)
	}
	if !f.Layers.Has(LayerVLAN | LayerIPv4 | LayerUDP) {
		t.Errorf("layers = %b", f.Layers)
	}
	if f.VLAN.ID != 42 || f.VLAN.Priority != 5 {
		t.Errorf("vlan = %+v", f.VLAN)
	}
}

func TestDecodeFramePFC(t *testing.T) {
	eth := Ethernet{EtherType: EtherTypeMACCtrl}
	wire := eth.AppendTo(nil)
	wire = Pause(4, 0xffff).AppendTo(wire)
	var f Frame
	if err := DecodeFrame(wire, &f); err != nil {
		t.Fatal(err)
	}
	if !f.Layers.Has(LayerPFC) || !f.PFC.IsPause(4) {
		t.Errorf("PFC decode failed: %+v", f)
	}
}

func TestDecodeFrameUnknownEtherType(t *testing.T) {
	eth := Ethernet{EtherType: 0x86DD} // IPv6: unsupported by this codec
	wire := eth.AppendTo(nil)
	wire = append(wire, 1, 2, 3)
	var f Frame
	err := DecodeFrame(wire, &f)
	if !errors.Is(err, ErrUnknownEtherType) {
		t.Fatalf("err = %v, want ErrUnknownEtherType", err)
	}
	if !f.Layers.Has(LayerEthernet) {
		t.Error("ethernet layer should still be decoded")
	}
	if len(f.Payload) != 3 {
		t.Errorf("payload = %x", f.Payload)
	}
}

func TestFrameFlowKeyNoIP(t *testing.T) {
	var f Frame
	f.Layers = LayerEthernet
	if _, ok := f.FlowKey(); ok {
		t.Error("FlowKey ok for non-IP frame")
	}
}

func TestKindString(t *testing.T) {
	kinds := map[Kind]string{
		KindData: "data", KindPFC: "pfc", KindLossNotify: "loss-notify",
		KindEventBatch: "event-batch", KindProbe: "probe", KindMirror: "mirror",
		Kind(200): "kind(200)",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("Kind(%d).String() = %q, want %q", uint8(k), k.String(), want)
		}
	}
}

func BenchmarkDecodeFrame(b *testing.B) {
	p := &Packet{Flow: testFlow(), WireLen: 724, TTL: 64, SeqTag: 1, HasSeqTag: true}
	wire := MarshalDataFrame(p, nil)
	var f Frame
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeFrame(wire, &f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMarshalDataFrame(b *testing.B) {
	p := &Packet{Flow: testFlow(), WireLen: 724, TTL: 64, SeqTag: 1, HasSeqTag: true}
	buf := make([]byte, 0, 1600)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = MarshalDataFrame(p, buf[:0])
	}
}
