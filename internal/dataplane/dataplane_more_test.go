package dataplane

import (
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// Additional switch-model tests: MMU accounting, strict priority, ECMP
// distribution, ACL matching breadth, and fabric wiring invariants.

func TestMMUAccountingConserved(t *testing.T) {
	r := newLineRig(t, Config{})
	for i := 0; i < 50; i++ {
		r.sendAB(1000, 64, 0)
	}
	r.sim.RunAll()
	if r.sw0.MMUUsed() != 0 {
		t.Errorf("sw0 MMU = %d bytes after drain, want 0", r.sw0.MMUUsed())
	}
	if r.sw1.MMUUsed() != 0 {
		t.Errorf("sw1 MMU = %d bytes after drain, want 0", r.sw1.MMUUsed())
	}
	if len(r.b.got) != 50 {
		t.Errorf("delivered %d of 50", len(r.b.got))
	}
}

func TestSharedMMULimit(t *testing.T) {
	// MMU smaller than a queue limit: the shared pool binds first.
	r := newLineRig(t, Config{MMUBytes: 4000, QueueLimitBytes: 1 << 20})
	for i := 0; i < 10; i++ {
		r.sendAB(1400, 64, 0)
	}
	r.sim.RunAll()
	if r.gt.TypePackets[fevent.TypeDrop] == 0 {
		t.Error("no drops despite 14 kB burst into a 4 kB MMU")
	}
	if r.sw0.MMUUsed() != 0 {
		t.Errorf("MMU bytes leaked: %d", r.sw0.MMUUsed())
	}
}

func TestStrictPriorityScheduling(t *testing.T) {
	// Fill the egress with low-priority packets, then one high-priority:
	// the high one overtakes everything still queued.
	r := newLineRig(t, Config{})
	for i := 0; i < 30; i++ {
		r.sendAB(1400, 64, 0) // priority 0
	}
	r.sendAB(100, 64, 7)
	r.sim.RunAll()
	if len(r.b.got) != 31 {
		t.Fatalf("delivered %d of 31", len(r.b.got))
	}
	// The priority-7 packet must not be the last arrival.
	last := r.b.got[len(r.b.got)-1]
	if last.Priority == 7 {
		t.Error("high-priority packet delivered last — strict priority broken")
	}
	// It should arrive well before most low-priority packets.
	pos := -1
	for i, p := range r.b.got {
		if p.Priority == 7 {
			pos = i
		}
	}
	if pos > 15 {
		t.Errorf("priority-7 packet arrived at position %d of 31", pos)
	}
}

func TestECMPFlowDistributionAcrossFabric(t *testing.T) {
	// Many flows from one pod to another spread across both cores.
	s := sim.New()
	tp := topo.Testbed()
	routes := topo.BuildRoutes(tp)
	gt := NewGroundTruth()
	fab := BuildFabric(s, tp, routes, Config{}, gt, 1)
	hosts := tp.Hosts()
	var srcs, dsts []topo.Node
	for _, h := range hosts {
		if h.Pod == 0 {
			srcs = append(srcs, h)
		} else {
			dsts = append(dsts, h)
		}
	}
	stub := &hostStub{}
	for _, h := range hosts {
		fab.AttachHost(h.ID, stub)
	}
	var id uint64
	for i := 0; i < 64; i++ {
		src := srcs[i%len(srcs)]
		dst := dsts[i%len(dsts)]
		flow := pkt.FlowKey{SrcIP: src.IP, DstIP: dst.IP, SrcPort: uint16(1000 + i), DstPort: 80, Proto: pkt.ProtoTCP}
		id++
		at := fab.HostPorts[src.ID][0]
		at.Link.Send(at.FromA, &pkt.Packet{ID: id, Kind: pkt.KindData, Flow: flow, WireLen: 200, TTL: 64})
	}
	s.RunAll()
	c0, _ := tp.NodeByName("core0")
	c1, _ := tp.NodeByName("core1")
	f0 := fab.Switches[c0.ID].Forwarded()
	f1 := fab.Switches[c1.ID].Forwarded()
	if f0 == 0 || f1 == 0 {
		t.Errorf("cores used unevenly: core0=%d core1=%d — ECMP polarized", f0, f1)
	}
}

func TestACLRuleMatching(t *testing.T) {
	cases := []struct {
		name string
		rule ACLRule
		flow pkt.FlowKey
		want bool
	}{
		{"wildcard matches anything", ACLRule{}, pkt.FlowKey{SrcIP: 1, DstIP: 2}, true},
		{"src prefix hit",
			ACLRule{SrcIP: pkt.IP(10, 0, 0, 0), SrcMask: 0xffffff00},
			pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 42)}, true},
		{"src prefix miss",
			ACLRule{SrcIP: pkt.IP(10, 0, 0, 0), SrcMask: 0xffffff00},
			pkt.FlowKey{SrcIP: pkt.IP(10, 0, 1, 42)}, false},
		{"dst port exact hit",
			ACLRule{MatchDstPort: true, DstPort: 80},
			pkt.FlowKey{DstPort: 80}, true},
		{"dst port exact miss",
			ACLRule{MatchDstPort: true, DstPort: 80},
			pkt.FlowKey{DstPort: 81}, false},
		{"src port exact",
			ACLRule{MatchSrcPort: true, SrcPort: 0},
			pkt.FlowKey{SrcPort: 0}, true},
		{"proto hit",
			ACLRule{MatchProto: true, Proto: pkt.ProtoTCP},
			pkt.FlowKey{Proto: pkt.ProtoTCP}, true},
		{"proto miss",
			ACLRule{MatchProto: true, Proto: pkt.ProtoTCP},
			pkt.FlowKey{Proto: pkt.ProtoUDP}, false},
	}
	for _, c := range cases {
		if got := c.rule.Matches(c.flow); got != c.want {
			t.Errorf("%s: Matches = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestACLTableOrderAndClear(t *testing.T) {
	var tbl ACLTable
	tbl.Add(ACLRule{ID: 1, Action: ACLDeny, MatchDstPort: true, DstPort: 80})
	tbl.Add(ACLRule{ID: 2, Action: ACLPermit})
	if r := tbl.Lookup(pkt.FlowKey{DstPort: 80}); r == nil || r.ID != 1 {
		t.Error("first-match lookup failed")
	}
	if r := tbl.Lookup(pkt.FlowKey{DstPort: 81}); r == nil || r.ID != 2 {
		t.Error("fallthrough lookup failed")
	}
	if tbl.Len() != 2 {
		t.Errorf("Len = %d", tbl.Len())
	}
	tbl.Clear()
	if tbl.Len() != 0 || tbl.Lookup(pkt.FlowKey{}) != nil {
		t.Error("Clear incomplete")
	}
}

func TestFabricPortNumberingMatchesTopo(t *testing.T) {
	s := sim.New()
	tp := topo.Testbed()
	routes := topo.BuildRoutes(tp)
	fab := BuildFabric(s, tp, routes, Config{}, NewGroundTruth(), 1)
	for _, node := range tp.Switches() {
		sw := fab.Switches[node.ID]
		if sw.NumPorts() != len(tp.Ports(node.ID)) {
			t.Errorf("%s: %d switch ports vs %d topo ports", node.Name, sw.NumPorts(), len(tp.Ports(node.ID)))
		}
	}
}

func TestLinkBetweenLookups(t *testing.T) {
	s := sim.New()
	tp := topo.Testbed()
	routes := topo.BuildRoutes(tp)
	fab := BuildFabric(s, tp, routes, Config{}, NewGroundTruth(), 1)
	if fab.LinkBetween("agg0-0", "core0") == nil {
		t.Error("existing link not found")
	}
	if fab.LinkBetween("core0", "agg0-0") == nil {
		t.Error("reverse order lookup failed")
	}
	if fab.LinkBetween("core0", "core1") != nil {
		t.Error("nonexistent link found")
	}
	if fab.LinkBetween("nope", "core0") != nil {
		t.Error("unknown node matched")
	}
}

func TestGroundTruthDisabled(t *testing.T) {
	r := newLineRig(t, Config{})
	r.gt.Enabled = false
	r.sendAB(100, 1, 0) // TTL drop
	r.sim.RunAll()
	r.sw0.ACL().Add(ACLRule{ID: 7, Action: ACLDeny, DstIP: r.hB.IP, DstMask: 0xffffffff})
	r.sendAB(100, 64, 0) // ACL deny
	r.sim.RunAll()
	if r.sw0.DropsByCode()[fevent.DropACLDeny] != 1 {
		t.Fatal("the ACL deny did not happen")
	}
	if len(r.gt.Events) != 0 || r.gt.TypePackets != [len(r.gt.TypePackets)]int{} || len(r.gt.ACLDenies) != 0 {
		t.Error("disabled ledger recorded drops")
	}
}

func TestControlFramesBypassDataQueues(t *testing.T) {
	// SendFromPort control traffic is not blocked by a paused data queue.
	r := newLineRig(t, Config{LosslessMask: 1})
	l := r.fab.LinkBetween("sw0", "sw1")
	l.Send(false, &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Pause(0, 0xffff)})
	r.sim.Run(10 * sim.Microsecond)
	r.sw0.SendFromPort(0, &pkt.Packet{Kind: pkt.KindLossNotify, WireLen: 64, Payload: []byte{0, 0, 0, 1, 0, 0, 0, 2}})
	r.sim.Run(20 * sim.Microsecond)
	// The notify reached sw1 (counted as RX) despite the paused queue.
	if r.sw1.Counters(0).RxPackets == 0 {
		t.Error("control frame blocked by paused data queue")
	}
}

func TestASICFailureBypassesTelemetryButAlerts(t *testing.T) {
	r := newLineRig(t, Config{})
	var alerts []SyslogAlert
	r.sw0.OnSyslog(func(a SyslogAlert) { alerts = append(alerts, a) })
	r.sw0.InjectASICFailure()
	m := &countingMonitor{}
	r.sw0.AddMonitor(m)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 0 {
		t.Fatal("packet traversed a failed ASIC")
	}
	if len(alerts) != 1 || alerts[0].SwitchID != r.sw0.ID {
		t.Fatalf("syslog alerts = %+v", alerts)
	}
	// The pipeline is broken: no drop hook fired (NetSeer cannot cover
	// this class — §3.7), but ground truth records it.
	if m.drops != 0 {
		t.Error("monitor saw a drop from a dead ASIC")
	}
	if d := ledgerOf(r.gt, fevent.TypeDrop); len(d) != 1 || d[0].Key.Code != fevent.DropASICFailure || d[0].Packets != 1 {
		t.Errorf("ground truth = %+v", d)
	}
	r.sw0.RepairHardware()
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Error("repaired switch still dropping")
	}
}

func TestMMUFailureDropsInvisibly(t *testing.T) {
	r := newLineRig(t, Config{})
	var alerts []SyslogAlert
	r.sw0.OnSyslog(func(a SyslogAlert) { alerts = append(alerts, a) })
	r.sw0.InjectMMUFailure()
	m := &countingMonitor{}
	r.sw0.AddMonitor(m)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 0 {
		t.Fatal("packet traversed a failed MMU")
	}
	if m.drops != 0 {
		t.Error("monitor saw an MMU-failure drop")
	}
	if len(alerts) != 1 {
		t.Errorf("alerts = %d", len(alerts))
	}
	if d := ledgerOf(r.gt, fevent.TypeDrop); len(d) != 1 || d[0].Key.Code != fevent.DropMMUFailure || d[0].Packets != 1 {
		t.Errorf("ground truth = %+v", d)
	}
}

// TestForwardZeroAllocSteadyState pins a packet's whole way through two
// switches — admission at send time, the front's pipeline event, egress
// queue, serialization (kick → txDone → transmit) and the next link — at
// zero allocations in steady state, with enough packets sent back to back
// that the egress queues hold several at once.
func TestForwardZeroAllocSteadyState(t *testing.T) {
	r := newLineRig(t, Config{})
	r.gt.Enabled = false
	sink := &countingHost{}
	r.fab.AttachHost(r.hB.ID, sink)
	pkts := make([]*pkt.Packet, 12)
	for i := range pkts {
		pkts[i] = &pkt.Packet{Kind: pkt.KindData, Flow: r.flowAB(), Priority: uint8(i % 2)}
	}
	at := r.fab.HostPorts[r.hA.ID][0]
	burst := func() {
		for _, p := range pkts {
			p.WireLen, p.TTL = 1000, 64
			at.Link.Send(at.FromA, p)
		}
		r.sim.RunAll()
	}
	burst() // warm rings, burst pool and the scheduler's free list
	if got := testing.AllocsPerRun(100, burst); got != 0 {
		t.Errorf("forwarding allocates %v times per %d packets; budget is 0", got, len(pkts))
	}
	if sink.n != 102*len(pkts) {
		t.Errorf("host B received %d packets, want %d", sink.n, 102*len(pkts))
	}
}

type countingHost struct{ n int }

func (h *countingHost) Receive(*pkt.Packet, int) { h.n++ }

// TestDrainedEgressQueueDropsPacketReferences: packets that queued behind
// a slow egress port become unreachable once transmitted and delivered —
// checked with finalizers, since that is the property (a front-resliced
// slice kept every popped packet reachable until its next reallocation).
// Arrivals are a microsecond apart, so each switch has one ingress burst
// in its pipeline at a time and its scratch holds one packet, the last.
func TestDrainedEgressQueueDropsPacketReferences(t *testing.T) {
	r := newLineRigBps(t, Config{}, 1e9) // 12 µs a packet out of sw0
	r.gt.Enabled = false
	sink := &countingHost{}
	r.fab.AttachHost(r.hB.ID, sink)
	const total, checked = 40, 30
	var collected atomic.Int32
	for i := 0; i < total; i++ {
		p := r.sendAB(1500, 64, uint8(i%3))
		if i < checked {
			runtime.SetFinalizer(p, func(*pkt.Packet) { collected.Add(1) })
		}
		r.sim.Run(r.sim.Now() + sim.Microsecond)
	}
	if backlog := r.sw0.MMUUsed(); backlog < 30*1500 {
		t.Fatalf("%d bytes queued at sw0: the backlog this test needs did not build", backlog)
	}
	r.sim.RunAll()
	if sink.n != total {
		t.Fatalf("host B received %d packets, want %d", sink.n, total)
	}
	for try := 0; try < 200 && collected.Load() < checked; try++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := collected.Load(); got < checked {
		t.Errorf("%d of the first %d transmitted packets are still referenced by the drained fabric", checked-got, checked)
	}
	runtime.KeepAlive(r) // the fabric itself must outlive the check
}

// hookLog is a Telemetry (and BurstTelemetry) that records the order of
// the calls the pipeline makes, each with the packet's ingress port.
type hookLog struct{ calls []string }

func (h *hookLog) logf(format string, args ...any) {
	h.calls = append(h.calls, fmt.Sprintf(format, args...))
}
func (h *hookLog) IngressData(_ *pkt.Packet, port int)       { h.logf("ingress %d", port) }
func (h *hookLog) HandleLossNotify(*pkt.Packet, int)         {}
func (h *hookLog) OnDequeue(*pkt.Packet, int, int, sim.Time) {}
func (h *hookLog) EgressData(*pkt.Packet, int)               {}
func (h *hookLog) OnCorruptFrame(int)                        {}
func (h *hookLog) BeginBurst(n int)                          { h.logf("begin %d", n) }
func (h *hookLog) EndBurst()                                 { h.logf("end") }
func (h *hookLog) OnMMUDrop(_ *pkt.Packet, in, _, _ int)     { h.logf("mmu-drop %d", in) }
func (h *hookLog) PipelineForward(_ *pkt.Packet, in, _, _ int, _ bool) {
	h.logf("forward %d", in)
}
func (h *hookLog) OnPipelineDrop(_ *pkt.Packet, in int, code fevent.DropCode, _ int) {
	h.logf("drop %d %v", in, code)
}

// TestPipelineRunsPerPacketInIngressPortOrder pins the order of telemetry
// hooks within a multi-packet front: four same-instant arrivals on ports
// 3, 1, 2, 0 run through the pipeline one packet at a time in ascending
// ingress port, each packet's calls contiguous (the MMU drop directly
// after its own forward, the ACL deny where the packet stands), bracketed
// by BeginBurst(4) and EndBurst.
func TestPipelineRunsPerPacketInIngressPortOrder(t *testing.T) {
	s := sim.New()
	const egress = 4
	sw := NewSwitch(s, 1, "sw", Config{QueueLimitBytes: 2000},
		func(uint32) []int { return []int{egress} }, NewGroundTruth())
	sink := &countingHost{}
	for port := 0; port <= egress; port++ {
		l := link.New(s, link.Endpoint{Dev: sw, Port: port}, link.Endpoint{Dev: sink}, sim.Microsecond, sim.NewStream(1, "order"))
		sw.AddPort(l, true, 10e9)
	}
	const deniedSrcPort = 2002
	sw.ACL().Add(ACLRule{ID: 7, Action: ACLDeny, MatchSrcPort: true, SrcPort: deniedSrcPort})
	log := &hookLog{}
	sw.SetTelemetry(log)

	// Into one 2000-byte egress queue: port 0's 1000 B is admitted, port
	// 1's 1500 B overflows it, port 2 is ACL-denied, port 3's 500 B fits.
	wireLen := [4]int{1000, 1500, 800, 500}
	for _, port := range []int{3, 1, 2, 0} {
		sw.Receive(&pkt.Packet{
			ID: uint64(port), Kind: pkt.KindData, WireLen: wireLen[port], TTL: 64,
			Flow: pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: uint16(2000 + port), DstPort: 80, Proto: pkt.ProtoTCP},
		}, port)
	}
	s.RunAll()

	want := []string{
		"ingress 3", "ingress 1", "ingress 2", "ingress 0",
		"begin 4",
		"forward 0",
		"forward 1", "mmu-drop 1",
		fmt.Sprintf("drop 2 %v", fevent.DropACLDeny),
		"forward 3",
		"end",
	}
	if !slices.Equal(log.calls, want) {
		t.Errorf("hook order\n got %q\nwant %q", log.calls, want)
	}
	if sink.n != 2 {
		t.Errorf("%d packets left the egress port, want 2", sink.n)
	}
}

// admitSink is an Admitter at the far end of an egress link: it takes the
// data frames it is handed and schedules nothing, so a test counts the
// sending switch's events alone.
type admitSink struct{ countingHost }

func (a *admitSink) Admit(*pkt.Packet, int, sim.Time) { a.n++ }

// mixedDelaySwitch is a switch whose ports 0 and 1 take frames from
// upstream links of 700 ns and 1 µs and whose port 2 is the egress every
// packet is routed to.
func mixedDelaySwitch(t *testing.T) (*sim.Simulator, *Switch, [2]*link.Link, *admitSink) {
	t.Helper()
	s := sim.New()
	sw := NewSwitch(s, 1, "sw", Config{}, func(uint32) []int { return []int{2} }, NewGroundTruth())
	var in [2]*link.Link
	for port, prop := range []sim.Time{700 * sim.Nanosecond, sim.Microsecond} {
		in[port] = link.New(s, link.Endpoint{Dev: &countingHost{}}, link.Endpoint{Dev: sw, Port: port}, prop, sim.NewStream(1, "up"))
		sw.AddPort(in[port], false, 10e9)
	}
	out := &admitSink{}
	sw.AddPort(link.New(s, link.Endpoint{Dev: sw, Port: 2}, link.Endpoint{Dev: out}, sim.Microsecond, sim.NewStream(1, "down")), true, 10e9)
	return s, sw, in, out
}

func dataFrame(srcPort uint16) *pkt.Packet {
	return &pkt.Packet{Kind: pkt.KindData, WireLen: 100, TTL: 64,
		Flow: pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: srcPort, DstPort: 80, Proto: pkt.ProtoTCP}}
}

// TestFrontsFormByArrivalInstantAcrossDelays: frames that arrive at one
// instant over links of different delays form one front, port-sorted, even
// though frames arriving earlier and later are admitted between them; each
// front's arrival work and pipeline run PipelineLatency after its arrival
// instant.
func TestFrontsFormByArrivalInstantAcrossDelays(t *testing.T) {
	s, sw, in, out := mixedDelaySwitch(t)
	log := &hookLog{}
	sw.SetTelemetry(log)
	s.At(0, func() { in[1].Send(true, dataFrame(1)) })   // 1 µs: arrives at 1000
	s.At(100, func() { in[0].Send(true, dataFrame(2)) }) // 700 ns: arrives at 800
	s.At(150, func() { in[1].Send(true, dataFrame(3)) }) // 1 µs: arrives at 1150
	s.At(300, func() { in[0].Send(true, dataFrame(4)) }) // 700 ns: arrives at 1000

	for _, front := range []struct {
		arrival sim.Time
		calls   []string
	}{
		{800, []string{"ingress 0", "begin 1", "forward 0", "end"}},
		{1000, []string{"ingress 1", "ingress 0", "begin 2", "forward 0", "forward 1", "end"}},
		{1150, []string{"ingress 1", "begin 1", "forward 1", "end"}},
	} {
		log.calls = nil
		s.Run(front.arrival + 600 - 1)
		if len(log.calls) != 0 {
			t.Fatalf("front of %v ran before its arrival + PipelineLatency: %q", front.arrival, log.calls)
		}
		s.Run(front.arrival + 600)
		if !slices.Equal(log.calls, front.calls) {
			t.Errorf("front of %v: %q, want %q", front.arrival, log.calls, front.calls)
		}
	}
	s.RunAll()
	if out.n != 4 {
		t.Errorf("%d packets left the switch, want 4", out.n)
	}
}

// arrivalClock is a Telemetry that records the instants of the hooks that
// run on a frame's arrival.
type arrivalClock struct {
	hookLog
	sim                      *sim.Simulator
	ingress, notify, corrupt []sim.Time
}

func (a *arrivalClock) IngressData(*pkt.Packet, int)      { a.ingress = append(a.ingress, a.sim.Now()) }
func (a *arrivalClock) HandleLossNotify(*pkt.Packet, int) { a.notify = append(a.notify, a.sim.Now()) }
func (a *arrivalClock) OnCorruptFrame(int)                { a.corrupt = append(a.corrupt, a.sim.Now()) }

// TestControlAndCorruptFramesActOnArrival: PFC and loss-notify frames
// change switch state, and the MAC discards a corrupt frame, at the arrival
// instant; only a data frame's arrival work waits for its pipeline event.
func TestControlAndCorruptFramesActOnArrival(t *testing.T) {
	s, sw, in, _ := mixedDelaySwitch(t)
	clock := &arrivalClock{sim: s}
	sw.SetTelemetry(clock)
	up := in[1] // 1 µs
	up.Send(true, dataFrame(1))
	up.Send(true, &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Pause(3, 0xffff)})
	up.Send(true, &pkt.Packet{Kind: pkt.KindLossNotify, WireLen: 64})
	up.SetFault(true, link.Fault{CorruptProb: 1})
	up.Send(true, dataFrame(2))

	s.Run(sim.Microsecond - 1)
	if sw.ports[1].paused[3] || len(clock.notify)+len(clock.corrupt) != 0 {
		t.Fatal("a control or corrupt frame acted before it arrived")
	}
	s.Run(sim.Microsecond)
	if !sw.ports[1].paused[3] {
		t.Error("PFC pause not in force at its arrival instant")
	}
	if !slices.Equal(clock.notify, []sim.Time{sim.Microsecond}) || !slices.Equal(clock.corrupt, []sim.Time{sim.Microsecond}) {
		t.Errorf("loss notify handled at %v, corrupt frame discarded at %v; want both at 1µs", clock.notify, clock.corrupt)
	}
	if c := sw.Counters(1); c.CorruptRx != 1 || c.RxPackets != 2 {
		t.Errorf("counters at arrival %+v, want the corrupt frame and the two control frames' RX only", c)
	}
	s.RunAll()
	if want := []sim.Time{sim.Microsecond + 600}; !slices.Equal(clock.ingress, want) {
		t.Errorf("data frame's arrival work ran at %v, want %v", clock.ingress, want)
	}
	if c := sw.Counters(1); c.RxPackets != 3 {
		t.Errorf("RX packets %d after the pipeline event, want 3", c.RxPackets)
	}
}

// TestSwitchHopCostsTwoEvents: a data frame admitted to a switch whose
// next hop is also an Admitter takes exactly two events there — its
// pipeline event and its serialization's end.
func TestSwitchHopCostsTwoEvents(t *testing.T) {
	s, _, in, out := mixedDelaySwitch(t)
	in[0].Send(true, dataFrame(1))
	s.RunAll()
	if out.n != 1 {
		t.Fatalf("%d frames reached the next hop, want 1", out.n)
	}
	if n := s.Processed(); n != 2 {
		t.Errorf("the switch hop took %d events, want 2", n)
	}
}
