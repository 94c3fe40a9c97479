package dataplane

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// hostStub records everything delivered to a host port.
type hostStub struct {
	got []*pkt.Packet
}

func (h *hostStub) Receive(p *pkt.Packet, port int) { h.got = append(h.got, p) }

// lineRig is a 2-switch line fixture: hA — sw0 — sw1 — hB.
type lineRig struct {
	sim    *sim.Simulator
	fab    *Fabric
	gt     *GroundTruth
	a, b   *hostStub
	hA, hB topo.Node
	sw0    *Switch
	sw1    *Switch
	nextID uint64
}

func newLineRig(t *testing.T, cfg Config) *lineRig {
	t.Helper()
	return newLineRigBps(t, cfg, 0)
}

// newLineRigBps is newLineRig with the sw0—sw1 link at fabricBps (0: the
// topology's 100 Gb/s default).
func newLineRigBps(t *testing.T, cfg Config, fabricBps float64) *lineRig {
	t.Helper()
	tp := topo.Line(2, fabricBps, 0, 0)
	fab := BuildFabric(tp, cfg, 42)
	r := &lineRig{sim: fab.Sim, fab: fab, gt: fab.GT, a: &hostStub{}, b: &hostStub{}}
	r.hA, _ = tp.NodeByName("hA")
	r.hB, _ = tp.NodeByName("hB")
	fab.AttachHost(r.hA.ID, r.a)
	fab.AttachHost(r.hB.ID, r.b)
	sw0n, _ := tp.NodeByName("sw0")
	sw1n, _ := tp.NodeByName("sw1")
	r.sw0 = fab.Switches[sw0n.ID]
	r.sw1 = fab.Switches[sw1n.ID]
	return r
}

func (r *lineRig) flowAB() pkt.FlowKey {
	return pkt.FlowKey{SrcIP: r.hA.IP, DstIP: r.hB.IP, SrcPort: 1000, DstPort: 80, Proto: pkt.ProtoTCP}
}

// sendAB injects one packet from host A toward host B.
func (r *lineRig) sendAB(wireLen int, ttl uint8, prio uint8) *pkt.Packet {
	r.nextID++
	p := &pkt.Packet{
		ID: r.nextID, Kind: pkt.KindData, Flow: r.flowAB(),
		WireLen: wireLen, TTL: ttl, Priority: prio, SentAt: r.sim.Now(),
	}
	at := r.fab.HostPorts[r.hA.ID][0]
	at.Link.Send(at.FromA, p)
	return p
}

func TestEndToEndForwarding(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(724, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Fatalf("host B received %d packets, want 1", len(r.b.got))
	}
	got := r.b.got[0]
	if got.TTL != 62 {
		t.Errorf("TTL = %d, want 62 after two hops", got.TTL)
	}
	if got.Flow != r.flowAB() {
		t.Errorf("flow mangled: %v", got.Flow)
	}
}

func TestForwardingLatencyComponents(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(1250, 64, 0) // 1250 B = 10,000 bits
	r.sim.RunAll()
	// Path: 3 × prop(1µs) + per-switch (pipe 0.6µs + serialization).
	// sw0 egress is the 100 Gb/s fabric link: 10,000 bits → 100 ns.
	// sw1 egress is the 25 Gb/s host link: 10,000 bits → 400 ns.
	// (Host NIC serialization is not modeled at injection.)
	want := 3*sim.Microsecond + 2*600*sim.Nanosecond + 100*sim.Nanosecond + 400*sim.Nanosecond
	if r.sim.Now() != want {
		t.Errorf("delivery at %v, want %v", r.sim.Now(), want)
	}
}

func TestTTLExpiry(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(100, 1, 0) // TTL 1: first switch decrements to 0 → drop
	r.sim.RunAll()
	if len(r.b.got) != 0 {
		t.Fatal("packet with TTL 1 traversed two switches")
	}
	if n := r.sw0.DropsByCode()[fevent.DropTTLExpired]; n != 1 {
		t.Errorf("sw0 TTL drops = %d, want 1", n)
	}
	if d := ledgerOf(r.gt, fevent.TypeDrop); len(d) != 1 || d[0].Key.Code != fevent.DropTTLExpired || d[0].Packets != 1 {
		t.Errorf("ground truth = %+v", d)
	}
}

func TestNoRouteDrop(t *testing.T) {
	r := newLineRig(t, Config{})
	r.nextID++
	p := &pkt.Packet{
		ID: r.nextID, Kind: pkt.KindData,
		Flow:    pkt.FlowKey{SrcIP: r.hA.IP, DstIP: pkt.IP(203, 0, 113, 9), SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP},
		WireLen: 100, TTL: 64,
	}
	at := r.fab.HostPorts[r.hA.ID][0]
	at.Link.Send(at.FromA, p)
	r.sim.RunAll()
	if n := r.sw0.DropsByCode()[fevent.DropNoRoute]; n != 1 {
		t.Errorf("no-route drops = %d, want 1", n)
	}
}

func TestACLDenyDrop(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sw0.ACL().Add(ACLRule{
		ID: 7, Action: ACLDeny,
		DstIP: r.hB.IP, DstMask: 0xffffffff,
	})
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 0 {
		t.Fatal("ACL-denied packet delivered")
	}
	if n := r.sw0.DropsByCode()[fevent.DropACLDeny]; n != 1 {
		t.Errorf("ACL drops = %d, want 1", n)
	}
	if n := r.gt.ACLDenies[GTACLRule{r.sw0.ID, 7}]; n != 1 || len(r.gt.ACLDenies) != 1 {
		t.Errorf("ground truth denies = %v, want one by rule 7", r.gt.ACLDenies)
	}
}

func TestACLPermitOverridesLaterDeny(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sw0.ACL().Add(ACLRule{ID: 1, Action: ACLPermit, DstIP: r.hB.IP, DstMask: 0xffffffff})
	r.sw0.ACL().Add(ACLRule{ID: 2, Action: ACLDeny}) // deny-all after
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Fatal("first-match permit did not win")
	}
}

func TestParityErrorSilentDrop(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sw0.InjectParityError(r.hB.IP)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 0 {
		t.Fatal("parity-victim packet delivered")
	}
	// Silent: no visible counter increment, but ground truth records it.
	if got := r.sw0.Counters(1).Drops + r.sw0.Counters(0).Drops; got != 0 {
		t.Errorf("visible drops = %d, want 0 (silent)", got)
	}
	if d := ledgerOf(r.gt, fevent.TypeDrop); len(d) != 1 || d[0].Key.Code != fevent.DropParityError || d[0].Packets != 1 {
		t.Errorf("ground truth = %+v", d)
	}
	r.sw0.ClearParityError(r.hB.IP)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Error("repaired entry still dropping")
	}
}

func TestRouteOverrideBlackhole(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sw0.SetRouteOverride(r.hB.IP, []int{})
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if n := r.sw0.DropsByCode()[fevent.DropNoRoute]; n != 1 {
		t.Errorf("blackhole drops = %d, want 1", n)
	}
	// Unlike a parity error's, the drop is visible in the ingress port's
	// counters (host-facing port 1).
	if got := r.sw0.Counters(1).Drops; got != 1 {
		t.Errorf("visible drops = %d, want 1", got)
	}
	r.sw0.ClearRouteOverride(r.hB.IP)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Error("cleared override still dropping")
	}
}

func TestPortDownDrop(t *testing.T) {
	r := newLineRig(t, Config{})
	// sw0 port toward sw1 is port 0 (first link added).
	r.sw0.SetPortDown(0, true)
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if n := r.sw0.DropsByCode()[fevent.DropPortDown]; n != 1 {
		t.Errorf("port-down drops = %d, want 1", n)
	}
}

func TestMTUDrop(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(pkt.MaxEthernetFrame, 64, 0)
	r.sendAB(pkt.MaxEthernetFrame+1, 64, 0)
	r.sim.RunAll()
	if n := r.sw0.DropsByCode()[fevent.DropMTUExceeded]; n != 1 {
		t.Errorf("MTU drops = %d, want 1", n)
	}
	if len(r.b.got) != 1 || r.b.got[0].WireLen != pkt.MaxEthernetFrame {
		t.Errorf("host B received %d packets, want the one full-size frame", len(r.b.got))
	}
}

func TestCongestionDropOnQueueOverflow(t *testing.T) {
	// Tiny queue: back-to-back packets overflow it.
	r := newLineRig(t, Config{QueueLimitBytes: 3000})
	for i := 0; i < 10; i++ {
		r.sendAB(1400, 64, 0)
	}
	r.sim.RunAll()
	drops := r.sw0.DropsByCode()[fevent.DropMMUCongestion]
	if drops == 0 {
		t.Fatal("no congestion drops with 3 kB queue and 14 kB burst")
	}
	if int(drops)+len(r.b.got) != 10 {
		t.Errorf("drops %d + delivered %d != 10", drops, len(r.b.got))
	}
}

func TestCongestionGroundTruth(t *testing.T) {
	r := newLineRig(t, Config{CongestionThreshold: sim.Microsecond})
	// 20 × 1400 B back-to-back at 100 Gb/s: later packets queue ~112 ns
	// each; cumulative delay crosses 1 µs for the tail.
	for i := 0; i < 20; i++ {
		r.sendAB(1400, 64, 0)
	}
	r.sim.RunAll()
	if len(ledgerOf(r.gt, fevent.TypeCongestion)) == 0 {
		t.Error("no congestion ground truth for a 20-deep burst")
	}
}

func TestSNMPCounters(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(724, 64, 0)
	r.sim.RunAll()
	// sw0 port 1 is the host-facing port (link order: sw0-sw1 then hA-sw0).
	rx := r.sw0.Counters(1)
	if rx.RxPackets != 1 || rx.RxBytes != 724 {
		t.Errorf("rx counters = %+v", rx)
	}
	tx := r.sw0.Counters(0)
	if tx.TxPackets != 1 || tx.TxBytes != 724 {
		t.Errorf("tx counters = %+v", tx)
	}
}

func TestCorruptFrameDroppedAtMAC(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(100, 64, 0)
	r.sim.RunAll() // first packet traverses cleanly
	// Corrupt everything on the sw0→sw1 direction.
	l := r.fab.LinkBetween("sw0", "sw1")
	if l == nil {
		t.Fatal("no sw0-sw1 link")
	}
	l.SetFault(true, link.Fault{CorruptProb: 1.0})
	r.sendAB(100, 64, 0)
	r.sim.RunAll()
	if len(r.b.got) != 1 { // only the pre-fault packet
		t.Fatalf("host B received %d packets, want 1", len(r.b.got))
	}
	if r.sw1.Counters(0).CorruptRx != 1 {
		t.Errorf("corrupt counter = %d", r.sw1.Counters(0).CorruptRx)
	}
}

func TestPathChangeGroundTruth(t *testing.T) {
	r := newLineRig(t, Config{})
	r.sendAB(100, 64, 0)
	r.sendAB(100, 64, 0) // same flow, same path: only one change
	r.sim.RunAll()
	// Two switches each record one new-flow path event.
	if p := ledgerOf(r.gt, fevent.TypePathChange); len(p) != 2 || r.gt.TypePackets[fevent.TypePathChange] != 2 {
		t.Errorf("path changes = %+v, want one at each switch", p)
	}
}

// ledgerOf returns the ground-truth entries of one event type.
func ledgerOf(gt *GroundTruth, typ fevent.Type) []GTEvent {
	var out []GTEvent
	for _, e := range gt.Events {
		if e.Key.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

type countingMonitor struct {
	NopMonitor
	ingress, drops, dequeues, egress int
}

func (c *countingMonitor) OnIngress(*Switch, *pkt.Packet, int) { c.ingress++ }
func (c *countingMonitor) OnDrop(*Switch, *pkt.Packet, fevent.DropCode, bool) {
	c.drops++
}
func (c *countingMonitor) OnDequeue(*Switch, *pkt.Packet, int, int, sim.Time) { c.dequeues++ }
func (c *countingMonitor) OnEgress(*Switch, *pkt.Packet, int)                 { c.egress++ }

func TestMonitorHooks(t *testing.T) {
	r := newLineRig(t, Config{})
	m := &countingMonitor{}
	r.sw0.AddMonitor(m)
	r.sendAB(100, 64, 0)
	r.sendAB(100, 1, 0) // TTL drop
	r.sim.RunAll()
	if m.ingress != 2 || m.drops != 1 || m.dequeues != 1 || m.egress != 1 {
		t.Errorf("hooks = %+v", m)
	}
}

func TestPFCPauseStopsQueueAndResumes(t *testing.T) {
	r := newLineRig(t, Config{LosslessMask: 1 << 3})
	// Pause priority 3 on sw0's port 0 (toward sw1) by delivering a PFC
	// frame from sw1's side.
	l := r.fab.LinkBetween("sw0", "sw1")
	pauseFrame := &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Pause(3, 0xffff)}
	l.Send(false, pauseFrame) // sw1 side is B; sends toward sw0
	r.sim.Run(2 * sim.Microsecond)
	r.sendAB(100, 64, 3)
	r.sim.Run(10 * sim.Microsecond)
	if len(r.b.got) != 0 {
		t.Fatal("paused queue transmitted")
	}
	if p := ledgerOf(r.gt, fevent.TypePause); len(p) != 1 || p[0].Packets != 1 {
		t.Errorf("pause ground truth = %+v, want one packet", p)
	}
	// Resume.
	resumeFrame := &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Resume(3)}
	l.Send(false, resumeFrame)
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Error("resumed queue did not transmit")
	}
}

func TestPFCAutoGeneration(t *testing.T) {
	// Lossless queue filling past Xoff makes the switch pause its
	// upstream.
	r := newLineRig(t, Config{
		LosslessMask: 1 << 0, PFCXoffBytes: 4000, PFCXonBytes: 2000,
		QueueLimitBytes: 1 << 20,
	})
	for i := 0; i < 10; i++ {
		r.sendAB(1400, 64, 0)
	}
	r.sim.RunAll()
	// All packets eventually delivered (lossless), and at least one PFC
	// pause was observed at sw0's... the upstream here is the host stub,
	// which simply receives the PFC frame.
	var pfcSeen bool
	for _, p := range r.a.got {
		if p.Kind == pkt.KindPFC {
			pfcSeen = true
		}
	}
	if !pfcSeen {
		t.Error("no PFC frame reached the upstream")
	}
	if len(r.b.got) != 10 {
		t.Errorf("lossless queue delivered %d of 10", len(r.b.got))
	}
}

// TestPFCStaleTimerKeepsNewerPause: pause, resume, then pause again within
// one pause time. The first pause's quanta timer must not end the second
// pause: the queue stays paused until the second pause's own quanta run
// out.
func TestPFCStaleTimerKeepsNewerPause(t *testing.T) {
	r := newLineRig(t, Config{LosslessMask: 1 << 3})
	l := r.fab.LinkBetween("sw0", "sw1")
	quanta := 0xffff
	pauseFor := sim.Time(float64(quanta) * pkt.PFCQuantumNs)
	send := func(at sim.Time, f *pkt.PFCFrame) {
		r.sim.At(at, func() { l.Send(false, &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: f}) })
	}
	send(0, pkt.Pause(3, 0xffff))
	send(50*sim.Microsecond, pkt.Resume(3))
	send(200*sim.Microsecond, pkt.Pause(3, 0xffff)) // arrives 1 µs later
	r.sim.At(250*sim.Microsecond, func() { r.sendAB(100, 64, 3) })
	secondEnd := 201*sim.Microsecond + pauseFor

	r.sim.Run(secondEnd - sim.Microsecond)
	if len(r.b.got) != 0 {
		t.Fatalf("the queue transmitted during the second pause (first pause's quanta ran out at %v)", sim.Microsecond+pauseFor)
	}
	r.sim.RunAll()
	if len(r.b.got) != 1 {
		t.Fatalf("host B received %d packets after the pause, want 1", len(r.b.got))
	}
}
