package fevent

import (
	"encoding/binary"
	"strings"
	"testing"
	"testing/quick"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func sampleFlow() pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 3, 4),
		SrcPort: 5123, DstPort: 80, Proto: pkt.ProtoTCP,
	}
}

func TestRecordLenIs24(t *testing.T) {
	// The paper's headline: any event fits in 24 bytes (§3.4, §4).
	e := Event{Type: TypeCongestion, Flow: sampleFlow(), EgressPort: 7, Queue: 3,
		QueueLatencyUs: 1500, Count: 12, Hash: 0xdeadbeef}
	b := e.AppendRecord(nil)
	if len(b) != 24 || len(b) != RecordLen {
		t.Fatalf("record length = %d, want 24", len(b))
	}
}

func TestRecordRoundTripAllTypes(t *testing.T) {
	events := []Event{
		{Type: TypeDrop, Flow: sampleFlow(), IngressPort: 3, EgressPort: 9,
			DropCode: DropNoRoute, Count: 1, Hash: 42},
		{Type: TypeDrop, Flow: pkt.FlowKey{}, DropCode: DropACLDeny, ACLRule: 17,
			Count: 900, Hash: 7},
		{Type: TypeCongestion, Flow: sampleFlow(), EgressPort: 1, Queue: 5,
			QueueLatencyUs: 65535, Count: 65535, Hash: 0xffffffff},
		{Type: TypePathChange, Flow: sampleFlow(), IngressPort: 2, EgressPort: 4,
			Count: 1, Hash: 1},
		{Type: TypePause, Flow: sampleFlow(), EgressPort: 6, Queue: 7, Count: 3, Hash: 2},
	}
	for _, e := range events {
		b := e.AppendRecord(nil)
		var g Event
		if err := g.DecodeRecord(b); err != nil {
			t.Fatalf("%v: %v", e.Type, err)
		}
		if g != e {
			t.Errorf("round trip %v:\n got %+v\nwant %+v", e.Type, g, e)
		}
	}
}

func TestRecordQuickRoundTrip(t *testing.T) {
	f := func(typ uint8, src, dst uint32, sp, dp uint16, proto uint8,
		in, out, q uint8, lat uint16, code uint8, rule uint8, count uint16, hash uint32) bool {
		e := Event{
			Type:  Type(typ%numTypes) + TypeDrop,
			Flow:  pkt.FlowKey{SrcIP: src, DstIP: dst, SrcPort: sp, DstPort: dp, Proto: proto},
			Count: count, Hash: hash,
		}
		switch e.Type {
		case TypeDrop:
			e.IngressPort, e.EgressPort, e.DropCode, e.ACLRule = in, out, DropCode(code%14), rule
		case TypeCongestion:
			e.EgressPort, e.Queue, e.QueueLatencyUs = out, q&7, lat
		case TypePathChange:
			e.IngressPort, e.EgressPort = in, out
		case TypePause:
			e.EgressPort, e.Queue = out, q&7
		}
		var g Event
		if err := g.DecodeRecord(e.AppendRecord(nil)); err != nil {
			return false
		}
		return g == e
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestDecodeRecordErrors(t *testing.T) {
	var e Event
	if err := e.DecodeRecord(make([]byte, 23)); err == nil {
		t.Error("truncated record decoded")
	}
	bad := make([]byte, RecordLen)
	bad[0] = 99 // invalid type
	if err := e.DecodeRecord(bad); err == nil {
		t.Error("invalid type decoded")
	}
	bad[0] = 0 // zero type is also invalid
	if err := e.DecodeRecord(bad); err == nil {
		t.Error("zero type decoded")
	}
}

func TestEventKeyAggregation(t *testing.T) {
	a := Event{Type: TypeCongestion, Flow: sampleFlow(), Queue: 1}
	b := Event{Type: TypeCongestion, Flow: sampleFlow(), Queue: 5}
	if a.Key() != b.Key() {
		t.Error("same (type, flow) should share a dedup key regardless of detail")
	}
	c := Event{Type: TypeDrop, Flow: sampleFlow(), DropCode: DropNoRoute}
	if a.Key() == c.Key() {
		t.Error("different types must not share a key")
	}
	d := Event{Type: TypeDrop, Flow: sampleFlow(), DropCode: DropTTLExpired}
	if c.Key() == d.Key() {
		t.Error("different drop codes must not share a key")
	}
	p, q := Event{Type: TypePathChange, Flow: sampleFlow(), EgressPort: 1}, Event{Type: TypePathChange, Flow: sampleFlow(), EgressPort: 2}
	if p.Key() == q.Key() {
		t.Error("a flow on a different path must not share a key")
	}
	w, v := Event{Type: TypeAggSpike, EgressPort: 1, Window: 4}, Event{Type: TypeAggSpike, EgressPort: 1, Window: 5}
	if w.Key() == v.Key() {
		t.Error("a link spiking in a later window must not share a key")
	}
}

func TestACLKeyIgnoresFlow(t *testing.T) {
	// §3.4: ACL drops aggregate at rule granularity, not flow granularity.
	a := Event{Type: TypeDrop, DropCode: DropACLDeny, ACLRule: 3, Flow: sampleFlow()}
	b := Event{Type: TypeDrop, DropCode: DropACLDeny, ACLRule: 3,
		Flow: pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 5}}
	if a.Key() != b.Key() {
		t.Error("ACL drops with the same rule must aggregate across flows")
	}
	c := Event{Type: TypeDrop, DropCode: DropACLDeny, ACLRule: 4, Flow: sampleFlow()}
	if a.Key() == c.Key() {
		t.Error("different ACL rules must not aggregate")
	}
}

func TestTypeString(t *testing.T) {
	for _, tt := range Types {
		if !tt.Valid() {
			t.Errorf("%v not valid", tt)
		}
		if strings.Contains(tt.String(), "type(") {
			t.Errorf("missing name for %d", tt)
		}
	}
	if Type(77).String() != "type(77)" {
		t.Error("unknown type name")
	}
	if Type(0).Valid() || Type(8).Valid() {
		t.Error("out-of-range types report valid")
	}
}

func TestDropCodeString(t *testing.T) {
	if DropNoRoute.String() != "no-route" {
		t.Errorf("DropNoRoute = %q", DropNoRoute.String())
	}
	if DropCode(200).String() != "drop(200)" {
		t.Error("unknown code name")
	}
}

func TestDropCodeIsPipeline(t *testing.T) {
	pipeline := []DropCode{DropParityError, DropPortDown, DropLinkDown,
		DropACLDeny, DropTTLExpired, DropNoRoute, DropMTUExceeded}
	for _, c := range pipeline {
		if !c.IsPipeline() {
			t.Errorf("%v should be a pipeline drop", c)
		}
	}
	for _, c := range []DropCode{DropMMUCongestion, DropInterSwitch, DropInterCard, DropNone} {
		if c.IsPipeline() {
			t.Errorf("%v should not be a pipeline drop", c)
		}
	}
}

// TestEventString pins the rendering the query protocol prints, one
// fully populated event per type.
func TestEventString(t *testing.T) {
	e := Event{
		Flow: sampleFlow(), SwitchID: 12, IngressPort: 3, EgressPort: 7, Queue: 2,
		QueueLatencyUs: 450, DropCode: DropNoRoute, Window: 9, SketchErr: 5, Count: 65535,
	}
	const flow = "tcp 10.0.0.1:5123>10.0.3.4:80"
	want := map[Type]string{
		TypeDrop:        "drop[no-route] sw=12 " + flow + " in=3 out=7 n=65535",
		TypeCongestion:  "congestion sw=12 " + flow + " port=7 q=2 lat=450us n=65535",
		TypePathChange:  "path-change sw=12 " + flow + " in=3 out=7",
		TypePause:       "pause sw=12 " + flow + " port=7 q=2 n=65535",
		TypeHeavyHitter: "heavy-hitter sw=12 " + flow + " in=3 out=7 n=65535",
		TypeTopKChurn:   "topk-churn sw=12 " + flow + " out=7 n=65535 err=5",
		TypeAggSpike:    "agg-spike sw=12 port=7 win=9 kB=65535",
		Type(9):         "event(type=9)",
	}
	for typ, w := range want {
		e.Type = typ
		if got := e.String(); got != w {
			t.Errorf("String() = %q, want %q", got, w)
		}
		if got := string(e.AppendTo([]byte("> "))); got != "> "+w {
			t.Errorf("AppendTo = %q, want %q", got, "> "+w)
		}
	}
	e.Type = TypeDrop
	if n := testing.AllocsPerRun(100, func() { _ = e.AppendTo(make([]byte, 0, 128)) }); n != 0 {
		t.Errorf("AppendTo allocates %v times a call, want 0", n)
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := Batch{SwitchID: 12, Timestamp: 5 * sim.Second}
	for i := 0; i < DefaultBatchSize; i++ {
		b.Events = append(b.Events, Event{
			Type: TypeCongestion, Flow: sampleFlow(),
			EgressPort: uint8(i), Queue: uint8(i % 8),
			QueueLatencyUs: uint16(i * 10), Count: uint16(i + 1), Hash: sampleFlow().Hash(),
		})
	}
	buf, err := b.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) != b.EncodedLen() {
		t.Fatalf("encoded %d bytes, EncodedLen says %d", len(buf), b.EncodedLen())
	}
	var g Batch
	rest, err := DecodeBatch(buf, &g)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
	if g.SwitchID != 12 || g.Timestamp != 5*sim.Second || len(g.Events) != DefaultBatchSize {
		t.Fatalf("header round trip: %+v", g)
	}
	for i, e := range g.Events {
		if e.SwitchID != 12 || e.Timestamp != 5*sim.Second {
			t.Fatalf("event %d not stamped from header: %+v", i, e)
		}
		if e.EgressPort != uint8(i) {
			t.Fatalf("event %d corrupted: %+v", i, e)
		}
	}
}

func TestBatchTooLarge(t *testing.T) {
	b := Batch{Events: make([]Event, MaxBatchRecords+1)}
	if _, err := b.AppendTo(nil); err == nil {
		t.Error("oversized batch encoded")
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	var g Batch
	if _, err := DecodeBatch(make([]byte, 5), &g); err == nil {
		t.Error("truncated header decoded")
	}
	// Valid header claiming more records than present.
	b := Batch{SwitchID: 1, Events: []Event{{Type: TypeDrop, DropCode: DropNoRoute}}}
	buf, _ := b.AppendTo(nil)
	if _, err := DecodeBatch(buf[:len(buf)-1], &g); err == nil {
		t.Error("truncated body decoded")
	}
	binary.BigEndian.PutUint16(buf[BatchHeaderLen-2:], MaxBatchRecords+1)
	if _, err := DecodeBatch(buf, &g); err == nil {
		t.Error("oversized batch decoded")
	}
}

func TestDecodeBatchStream(t *testing.T) {
	// Two batches back-to-back decode sequentially.
	b1 := Batch{SwitchID: 1, Events: []Event{{Type: TypePause, Flow: sampleFlow(), EgressPort: 1}}}
	b2 := Batch{SwitchID: 2, Events: []Event{{Type: TypeDrop, Flow: sampleFlow(), DropCode: DropTTLExpired}}}
	buf, _ := b1.AppendTo(nil)
	buf, _ = b2.AppendTo(buf)
	var g Batch
	rest, err := DecodeBatch(buf, &g)
	if err != nil || g.SwitchID != 1 {
		t.Fatalf("first batch: %v %+v", err, g)
	}
	rest, err = DecodeBatch(rest, &g)
	if err != nil || g.SwitchID != 2 {
		t.Fatalf("second batch: %v %+v", err, g)
	}
	if len(rest) != 0 {
		t.Errorf("rest = %d bytes", len(rest))
	}
}

func TestDecodeBatchReusesEventSlice(t *testing.T) {
	b := Batch{SwitchID: 1, Events: make([]Event, 10)}
	for i := range b.Events {
		b.Events[i] = Event{Type: TypePause, Flow: sampleFlow()}
	}
	buf, _ := b.AppendTo(nil)
	g := Batch{Events: make([]Event, 0, 64)}
	base := &g.Events[:1][0]
	if _, err := DecodeBatch(buf, &g); err != nil {
		t.Fatal(err)
	}
	if &g.Events[0] != base {
		t.Error("DecodeBatch reallocated a sufficient slice")
	}
}

func BenchmarkAppendRecord(b *testing.B) {
	e := Event{Type: TypeCongestion, Flow: sampleFlow(), EgressPort: 7, Queue: 3,
		QueueLatencyUs: 1500, Count: 12, Hash: 0xdeadbeef}
	buf := make([]byte, 0, RecordLen)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = e.AppendRecord(buf[:0])
	}
}

func BenchmarkDecodeBatch50(b *testing.B) {
	batch := Batch{SwitchID: 3}
	for i := 0; i < 50; i++ {
		batch.Events = append(batch.Events, Event{Type: TypeDrop, Flow: sampleFlow(),
			DropCode: DropMMUCongestion, Count: 1, Hash: 1})
	}
	buf, _ := batch.AppendTo(nil)
	var g Batch
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeBatch(buf, &g); err != nil {
			b.Fatal(err)
		}
	}
}
