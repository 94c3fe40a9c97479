package core

import (
	"reflect"
	"runtime"
	"testing"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// memSink accumulates delivered events.
type memSink struct {
	events []fevent.Event
}

func (m *memSink) Deliver(b *fevent.Batch) {
	m.events = append(m.events, b.Events...)
}

func (m *memSink) byType(t fevent.Type) []fevent.Event {
	var out []fevent.Event
	for _, e := range m.events {
		if e.Type == t {
			out = append(out, e)
		}
	}
	return out
}

type hostStub struct{ got []*pkt.Packet }

func (h *hostStub) Receive(p *pkt.Packet, port int) { h.got = append(h.got, p) }

// rig is hA — sw0 — sw1 — hB with NetSeer on both switches.
type rig struct {
	sim        *sim.Simulator
	fab        *dataplane.Fabric
	gt         *dataplane.GroundTruth
	sink       *memSink
	a, b       *hostStub
	hA, hB     topo.Node
	sw0, sw1   *dataplane.Switch
	ns0, ns1   *NetSeerSwitch
	interLink  *link.Link
	nextPktID  uint64
	hostAttach dataplane.HostAttach
}

func newRig(t *testing.T, swCfg dataplane.Config, nsCfg Config) *rig {
	t.Helper()
	s := sim.New()
	tp := topo.Line(2, 0, 0, 0)
	routes := topo.BuildRoutes(tp)
	gt := dataplane.NewGroundTruth()
	fab := dataplane.BuildFabric(s, tp, routes, swCfg, gt, 7)
	r := &rig{sim: s, fab: fab, gt: gt, sink: &memSink{}, a: &hostStub{}, b: &hostStub{}}
	r.hA, _ = tp.NodeByName("hA")
	r.hB, _ = tp.NodeByName("hB")
	fab.AttachHost(r.hA.ID, r.a)
	fab.AttachHost(r.hB.ID, r.b)
	sw0n, _ := tp.NodeByName("sw0")
	sw1n, _ := tp.NodeByName("sw1")
	r.sw0 = fab.Switches[sw0n.ID]
	r.sw1 = fab.Switches[sw1n.ID]
	r.ns0 = Attach(r.sw0, nsCfg, r.sink)
	r.ns1 = Attach(r.sw1, nsCfg, r.sink)
	r.interLink = fab.LinkBetween("sw0", "sw1")
	r.hostAttach = fab.HostPorts[r.hA.ID][0]
	return r
}

func (r *rig) flow(srcPort uint16) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: r.hA.IP, DstIP: r.hB.IP, SrcPort: srcPort, DstPort: 80, Proto: pkt.ProtoTCP}
}

func (r *rig) send(flow pkt.FlowKey, wireLen int) {
	r.nextPktID++
	p := &pkt.Packet{
		ID: r.nextPktID, Kind: pkt.KindData, Flow: flow,
		WireLen: wireLen, TTL: 64, SentAt: r.sim.Now(),
	}
	r.hostAttach.Link.Send(r.hostAttach.FromA, p)
}

// finish runs the sim to the horizon, flushes all NetSeer state, and
// drains remaining work.
func (r *rig) finish(horizon sim.Time) {
	r.sim.Run(horizon)
	r.ns0.Flush()
	r.ns1.Flush()
	r.ns0.Stop()
	r.ns1.Stop()
	r.sim.RunAll()
	r.ns0.Flush()
	r.ns1.Flush()
}

func TestBlackholeDropReported(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	r.sw0.SetRouteOverride(r.hB.IP, []int{})
	f := r.flow(1000)
	r.send(f, 724)
	r.finish(sim.Millisecond)
	drops := r.sink.byType(fevent.TypeDrop)
	if len(drops) == 0 {
		t.Fatal("no drop event at sink")
	}
	found := false
	for _, e := range drops {
		if e.Flow == f && e.DropCode == fevent.DropNoRoute && e.SwitchID == r.sw0.ID {
			found = true
		}
	}
	if !found {
		t.Errorf("no no-route event for %v: %+v", f, drops)
	}
}

func TestACLDropsAggregatedPerRule(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	r.sw0.ACL().Add(dataplane.ACLRule{ID: 9, Action: dataplane.ACLDeny, DstIP: r.hB.IP, DstMask: 0xffffffff})
	for i := 0; i < 50; i++ {
		r.send(r.flow(uint16(1000+i)), 100) // 50 distinct flows
	}
	r.finish(sim.Millisecond)
	drops := r.sink.byType(fevent.TypeDrop)
	rules := make(map[uint8]uint16)
	for _, e := range drops {
		if e.DropCode != fevent.DropACLDeny {
			t.Fatalf("unexpected drop %+v", e)
		}
		if e.Count > rules[e.ACLRule] {
			rules[e.ACLRule] = e.Count
		}
	}
	if len(rules) != 1 {
		t.Fatalf("ACL events for %d rules, want 1", len(rules))
	}
	if rules[9] != 50 {
		t.Errorf("rule 9 final count = %d, want 50", rules[9])
	}
	// Far fewer events than flows: that is the point of rule aggregation.
	if len(drops) > 5 {
		t.Errorf("%d ACL events for 50 flows — aggregation failed", len(drops))
	}
}

func TestCongestionReported(t *testing.T) {
	r := newRig(t, dataplane.Config{CongestionThreshold: sim.Microsecond},
		Config{CongestionThreshold: sim.Microsecond})
	f := r.flow(1234)
	for i := 0; i < 40; i++ {
		r.send(f, 1400)
	}
	r.finish(10 * sim.Millisecond)
	congs := r.sink.byType(fevent.TypeCongestion)
	if len(congs) == 0 {
		t.Fatal("no congestion events")
	}
	for _, e := range congs {
		if e.Flow != f {
			t.Errorf("congestion for wrong flow %v", e.Flow)
		}
		if e.QueueLatencyUs == 0 {
			t.Error("zero queue latency recorded")
		}
	}
}

func TestPathChangeReportedOncePerFlow(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	f1, f2 := r.flow(1000), r.flow(2000)
	for i := 0; i < 10; i++ {
		r.send(f1, 200)
	}
	r.send(f2, 200)
	r.finish(sim.Millisecond)
	paths := r.sink.byType(fevent.TypePathChange)
	// Each switch reports each flow once: 2 switches × 2 flows = 4.
	perFlow := make(map[pkt.FlowKey]int)
	for _, e := range paths {
		perFlow[e.Flow]++
	}
	if perFlow[f1] != 2 || perFlow[f2] != 2 {
		t.Errorf("path-change counts = %v, want 2 per flow", perFlow)
	}
}

func TestInterSwitchSilentDropRecovered(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	victim := r.flow(1000)
	// Warm the sequence: a few packets first.
	for i := 0; i < 5; i++ {
		r.send(r.flow(2000), 300)
	}
	r.sim.Run(100 * sim.Microsecond)
	// Kill the next 2 frames on sw0→sw1 (the victim flow), then follow
	// with traffic so the gap is observed.
	r.interLink.InjectLossBurst(true, 2)
	r.send(victim, 724)
	r.send(victim, 724)
	r.sim.Run(200 * sim.Microsecond)
	for i := 0; i < 5; i++ {
		r.send(r.flow(2000), 300)
	}
	r.finish(sim.Millisecond)

	drops := r.sink.byType(fevent.TypeDrop)
	// Reports carry cumulative counts; the final count per flow event is
	// the maximum seen.
	recovered := uint16(0)
	for _, e := range drops {
		if e.DropCode == fevent.DropInterSwitch {
			if e.Flow != victim {
				t.Errorf("inter-switch drop attributed to wrong flow %v", e.Flow)
			}
			if e.SwitchID != r.sw0.ID {
				t.Errorf("attributed to switch %d, want upstream %d", e.SwitchID, r.sw0.ID)
			}
			if e.Count > recovered {
				recovered = e.Count
			}
		}
	}
	if recovered != 2 {
		t.Errorf("recovered %d victim packets, want 2", recovered)
	}
	st := r.ns1.Stats()
	if st.SeqGapsDetected != 1 {
		t.Errorf("downstream gaps = %d, want 1", st.SeqGapsDetected)
	}
	if st.NotifySent != 3 {
		t.Errorf("notifications sent = %d, want 3 copies", st.NotifySent)
	}
}

func TestCorruptionRecoveredViaGap(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	victim := r.flow(1000)
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.sim.Run(100 * sim.Microsecond)
	r.interLink.SetFault(true, link.Fault{CorruptProb: 1.0})
	r.send(victim, 724)
	r.sim.Run(150 * sim.Microsecond)
	r.interLink.SetFault(true, link.Fault{})
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.finish(sim.Millisecond)
	var found bool
	for _, e := range r.sink.byType(fevent.TypeDrop) {
		if e.DropCode == fevent.DropInterSwitch && e.Flow == victim {
			found = true
		}
	}
	if !found {
		t.Error("corrupted packet's flow not recovered")
	}
}

func TestRingOverwriteNeverMisattributes(t *testing.T) {
	// Ring of 8 slots, drop burst of 30 — most victims unrecoverable, and
	// none may be reported with a wrong flow.
	r := newRig(t, dataplane.Config{}, Config{RingSlots: 8})
	victim := r.flow(1000)
	other := r.flow(2000)
	for i := 0; i < 3; i++ {
		r.send(other, 300)
	}
	r.sim.Run(100 * sim.Microsecond)
	r.interLink.InjectLossBurst(true, 30)
	for i := 0; i < 30; i++ {
		r.send(victim, 300)
	}
	r.sim.Run(sim.Millisecond)
	for i := 0; i < 40; i++ {
		r.send(other, 300)
	}
	r.finish(10 * sim.Millisecond)
	for _, e := range r.sink.byType(fevent.TypeDrop) {
		if e.DropCode == fevent.DropInterSwitch && e.Flow != victim {
			t.Fatalf("misattributed inter-switch drop to %v", e.Flow)
		}
	}
	st := r.ns0.Stats()
	if st.LostRingOverwrite == 0 {
		t.Error("expected unrecoverable drops with an 8-slot ring and 30-drop burst")
	}
}

func TestSeqTagTransparentToPayload(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	f := r.flow(1000)
	r.send(f, 724)
	r.finish(sim.Millisecond)
	if len(r.b.got) != 1 {
		t.Fatal("packet not delivered")
	}
	got := r.b.got[0]
	// sw1 tags its egress toward the host; the host NIC would strip it.
	// The payload length under the tag must be the original.
	wire := got.WireLen
	if got.HasSeqTag {
		wire -= pkt.NetSeerTagLen
	}
	if wire != 724 {
		t.Errorf("wire length %d (tag %v), want 724 original", got.WireLen, got.HasSeqTag)
	}
}

func TestZeroFalseNegativesEndToEnd(t *testing.T) {
	r := newRig(t, dataplane.Config{QueueLimitBytes: 4000},
		Config{GroupSlots: 16}) // small table: plenty of collisions
	// Mixed faults: blackhole one subnet later, congestion drops from
	// bursts, many flows.
	for i := 0; i < 200; i++ {
		r.send(r.flow(uint16(1000+i%37)), 1400)
	}
	r.sim.Run(5 * sim.Millisecond)
	r.sw0.SetRouteOverride(r.hB.IP, []int{})
	for i := 0; i < 50; i++ {
		r.send(r.flow(uint16(1000+i%37)), 1400)
	}
	r.finish(20 * sim.Millisecond)

	// Every ground-truth drop flow event (other than inter-switch, none
	// here) must appear at the sink.
	want := r.gt.DropFlowEvents(func(c fevent.DropCode) bool {
		return c == fevent.DropNoRoute || c == fevent.DropMMUCongestion
	})
	got := make(map[dataplane.FlowEventKey]bool)
	for _, e := range r.sink.events {
		if e.Type == fevent.TypeDrop {
			got[dataplane.EventKey(&e)] = true
		}
	}
	for k := range want {
		if !got[k] {
			t.Fatalf("ground-truth drop event missing at sink: %+v", k)
		}
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: no ground-truth drops")
	}
}

func TestFPEliminationSuppressesDuplicates(t *testing.T) {
	// One-slot group table: two alternating flows evict each other
	// constantly, generating duplicate initial reports; the CPU removes
	// them.
	r := newRig(t, dataplane.Config{QueueLimitBytes: 2000}, Config{GroupSlots: 1})
	f1, f2 := r.flow(1), r.flow(2)
	for i := 0; i < 100; i++ {
		r.send(f1, 1400)
		r.send(f2, 1400)
	}
	r.finish(20 * sim.Millisecond)
	st0 := r.ns0.Stats()
	if st0.SuppressedFPs == 0 {
		t.Error("no false positives suppressed despite 1-slot table churn")
	}
}

func TestMMURedirectCapacityCliff(t *testing.T) {
	// Tiny redirect budget: most MMU drops exceed it and are lost.
	r := newRig(t, dataplane.Config{QueueLimitBytes: 2000},
		Config{MMURedirectBps: 1e6})
	for i := 0; i < 500; i++ {
		r.send(r.flow(uint16(i%11)), 1400)
	}
	r.finish(20 * sim.Millisecond)
	st := r.ns0.Stats()
	if st.LostMMURedirect == 0 {
		t.Error("no redirect losses with a 1 Mb/s budget under a drop storm")
	}
}

func TestStatsVolumeReduction(t *testing.T) {
	// The Fig. 13 invariant chain: raw ≥ event packets ≥ dedup ≥ extracted.
	r := newRig(t, dataplane.Config{QueueLimitBytes: 4000}, Config{})
	for i := 0; i < 300; i++ {
		r.send(r.flow(uint16(i%7)), 1400)
	}
	r.finish(20 * sim.Millisecond)
	st := r.ns0.Stats()
	if st.RawBytes == 0 || st.EventBytes == 0 {
		t.Fatalf("degenerate stats: %+v", st)
	}
	if st.EventBytes > st.RawBytes {
		t.Errorf("event bytes %d exceed raw bytes %d", st.EventBytes, st.RawBytes)
	}
	if st.ExtractedBytes > st.DedupBytes && st.DedupBytes > 0 {
		t.Errorf("extraction did not reduce volume: %d vs %d", st.ExtractedBytes, st.DedupBytes)
	}
	if st.DedupReports > st.EventPackets {
		t.Errorf("dedup emitted more (%d) than ingested (%d)", st.DedupReports, st.EventPackets)
	}
}

func TestDisableSeqAblation(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{DisableSeq: true})
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.sim.Run(100 * sim.Microsecond)
	r.interLink.InjectLossBurst(true, 2)
	r.send(r.flow(1000), 724)
	r.send(r.flow(1000), 724)
	r.sim.Run(100 * sim.Microsecond)
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.finish(sim.Millisecond)
	for _, e := range r.sink.byType(fevent.TypeDrop) {
		if e.DropCode == fevent.DropInterSwitch {
			t.Fatal("inter-switch event despite DisableSeq")
		}
	}
	if len(r.b.got) == 0 {
		t.Error("no traffic delivered")
	}
	if r.b.got[0].HasSeqTag {
		t.Error("packets tagged despite DisableSeq")
	}
}

// TestStatsAddSumsEveryField fills every field of two Stats with distinct
// values, so a field Add forgets reads as its own value, not the sum.
func TestStatsAddSumsEveryField(t *testing.T) {
	var a, b Stats
	va, vb := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < va.NumField(); i++ {
		va.Field(i).SetUint(uint64(i + 1))
		vb.Field(i).SetUint(uint64(100 * (i + 1)))
	}
	sum := a
	sum.Add(b)
	vs := reflect.ValueOf(sum)
	for i := 0; i < vs.NumField(); i++ {
		if got, want := vs.Field(i).Uint(), uint64(101*(i+1)); got != want {
			t.Errorf("%s = %d, want %d", vs.Type().Field(i).Name, got, want)
		}
	}
}

// TestAttachHeapBudget bounds what NetSeer allocates on a 10-port switch
// (a testbed edge switch) with the default Config: the group-caching
// tables at 32 B a slot and the rings at 20 B keep it under 1 MiB.
func TestAttachHeapBudget(t *testing.T) {
	sw := dataplane.NewSwitch(sim.New(), 1, "edge", dataplane.Config{}, func(uint32) []int { return nil }, nil)
	for i := 0; i < 10; i++ {
		sw.AddPort(nil, true, 10e9)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Attach(sw, Config{}, &memSink{})
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Errorf("Attach allocated %d B, budget 1 MiB", n)
	}
}
