package pkt

import (
	"hash/crc32"
	"testing"
	"testing/quick"
)

func TestIPHelpers(t *testing.T) {
	ip := IP(10, 1, 2, 3)
	if ip != 0x0a010203 {
		t.Fatalf("IP() = %#x", ip)
	}
	if got := IPString(ip); got != "10.1.2.3" {
		t.Fatalf("IPString() = %q", got)
	}
}

func TestFlowKeyWireRoundTrip(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{src, dst, sp, dp, proto}
		b := k.AppendWire(nil)
		if len(b) != FlowKeyLen {
			return false
		}
		k2, err := FlowKeyFromWire(b)
		return err == nil && k2 == k
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFlowKeyFromWireTruncated(t *testing.T) {
	if _, err := FlowKeyFromWire(make([]byte, FlowKeyLen-1)); err == nil {
		t.Error("expected error for truncated flow key")
	}
}

func TestFlowKeyReverse(t *testing.T) {
	k := FlowKey{IP(10, 0, 0, 1), IP(10, 0, 0, 2), 1234, 80, ProtoTCP}
	r := k.Reverse()
	if r.SrcIP != k.DstIP || r.DstIP != k.SrcIP || r.SrcPort != k.DstPort || r.DstPort != k.SrcPort {
		t.Fatalf("Reverse() = %+v", r)
	}
	if r.Reverse() != k {
		t.Error("double Reverse is not identity")
	}
}

func TestFlowKeyHashDeterministic(t *testing.T) {
	k := FlowKey{IP(192, 168, 0, 1), IP(10, 0, 0, 9), 5555, 443, ProtoTCP}
	if k.Hash() != k.Hash() {
		t.Error("Hash not deterministic")
	}
}

func TestFlowKeyHashDistinguishes(t *testing.T) {
	a := FlowKey{IP(10, 0, 0, 1), IP(10, 0, 0, 2), 100, 200, ProtoTCP}
	b := a
	b.SrcPort = 101
	if a.Hash() == b.Hash() {
		t.Error("distinct keys produced equal hash (CRC32C collision on 1-bit change is a bug)")
	}
}

func TestFlowKeyHashMatchesCRC32C(t *testing.T) {
	// The hand-rolled table loop in Hash, and WireHash of the encoding,
	// must stay bit-identical to the stdlib CRC-32C of the wire encoding:
	// the hash is a wire value (§3.6) that the switch CPU and collector
	// index tables by.
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{src, dst, sp, dp, proto}
		w := [FlowKeyLen]byte(k.AppendWire(nil))
		return k.Hash() == crc32.Checksum(w[:], castagnoli) && WireHash(&w) == k.Hash()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFlowKeyHashZeroAlloc(t *testing.T) {
	k := FlowKey{IP(10, 0, 0, 1), IP(10, 0, 0, 2), 100, 200, ProtoTCP}
	var sink uint32
	if n := testing.AllocsPerRun(1000, func() { sink += k.Hash() }); n != 0 {
		t.Errorf("Hash allocates %v times per call; the per-packet hot path budget is 0", n)
	}
	_ = sink
}

func TestTableIndexInRange(t *testing.T) {
	f := func(src, dst uint32, sp, dp uint16, proto uint8) bool {
		k := FlowKey{src, dst, sp, dp, proto}
		i := k.TableIndex(1024)
		return i >= 0 && i < 1024
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestFlowKeyString(t *testing.T) {
	k := FlowKey{IP(10, 0, 0, 1), IP(10, 0, 0, 2), 100, 200, ProtoUDP}
	if got := k.String(); got != "udp 10.0.0.1:100>10.0.0.2:200" {
		t.Errorf("String() = %q", got)
	}
	k.Proto = 99
	if got := k.String(); got != "? 10.0.0.1:100>10.0.0.2:200" {
		t.Errorf("String() = %q", got)
	}
}

func BenchmarkFlowKeyHash(b *testing.B) {
	k := FlowKey{IP(10, 0, 0, 1), IP(10, 0, 0, 2), 100, 200, ProtoTCP}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = k.Hash()
	}
}
