package baselines

import (
	"testing"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

type blNet struct {
	sim    *sim.Simulator
	fab    *dataplane.Fabric
	gt     *dataplane.GroundTruth
	routes *topo.Routes
	hosts  []*host.Host
}

func newBlNet(t *testing.T, swCfg dataplane.Config) *blNet {
	t.Helper()
	fab := dataplane.BuildFabric(topo.Testbed(), swCfg, 3)
	return &blNet{
		sim: fab.Sim, fab: fab, gt: fab.GT, routes: fab.Routes,
		hosts: host.Attach(fab, nic.Config{DisableSeq: true}),
	}
}

func (n *blNet) addMonitor(m dataplane.Monitor) {
	n.fab.EachSwitch(func(sw *dataplane.Switch) { sw.AddMonitor(m) })
}

func TestSamplerRatioAndOverhead(t *testing.T) {
	n := newBlNet(t, dataplane.Config{})
	s := NewSampler(10, 10*sim.Microsecond)
	n.addMonitor(s)
	src, dst := n.hosts[0], n.hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 1, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	src.SendUDP(flow, 1000, 724, 0)
	n.sim.RunAll()
	// 1000 packets × 5 switch hops = 5000 ingress events; 1:10 → ~500
	// samples × 64 B.
	want := uint64(500 * 64)
	if s.OverheadBytes() != want {
		t.Errorf("overhead = %d, want %d", s.OverheadBytes(), want)
	}
	if len(s.Detected()) == 0 {
		t.Error("sampled flow not detected at all")
	}
}

func TestSamplerCannotSeeDrops(t *testing.T) {
	n := newBlNet(t, dataplane.Config{})
	s := NewSampler(10, 10*sim.Microsecond)
	n.addMonitor(s)
	src := n.hosts[0]
	dst := n.hosts[31]
	tor := n.fab.HostPorts[src.Node.ID][0].Switch
	tor.SetRouteOverride(dst.Node.IP, []int{})
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 1, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	src.SendUDP(flow, 100, 724, 0)
	n.sim.RunAll()
	for k := range s.Detected() {
		if k.Type == fevent.TypeDrop {
			t.Fatal("sampler detected a drop — impossible for sFlow")
		}
	}
	if got := n.gt.TypePackets[fevent.TypeDrop]; got != 100 {
		t.Fatalf("ground truth drops = %d", got)
	}
}

func TestEverFlowWatchedFlowCoverage(t *testing.T) {
	n := newBlNet(t, dataplane.Config{})
	e := NewEverFlow(n.sim, 10*sim.Microsecond, sim.Millisecond, 1)
	n.addMonitor(e)
	src, dst := n.hosts[0], n.hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 9, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	// First packets establish the flow as a candidate.
	src.SendUDP(flow, 10, 724, 0)
	n.sim.Run(3 * sim.Millisecond) // at least one rotation: flow watched
	// Now drop its packets at the ToR.
	tor := n.fab.HostPorts[src.Node.ID][0].Switch
	tor.SetRouteOverride(dst.Node.IP, []int{})
	src.SendUDP(flow, 10, 724, 0)
	n.sim.Run(6 * sim.Millisecond)
	e.Stop()
	n.sim.RunAll()
	var dropSeen bool
	for k := range e.Detected() {
		if k.Type == fevent.TypeDrop && k.Flow == flow {
			dropSeen = true
		}
	}
	if !dropSeen {
		t.Error("watched flow's drop not detected")
	}
}

func TestEverFlowUnwatchedFlowInvisible(t *testing.T) {
	n := newBlNet(t, dataplane.Config{})
	e := NewEverFlow(n.sim, 10*sim.Microsecond, 0, 1)
	n.addMonitor(e) // default rotation 60 s: nothing is ever watched here
	src, dst := n.hosts[0], n.hosts[31]
	tor := n.fab.HostPorts[src.Node.ID][0].Switch
	tor.SetRouteOverride(dst.Node.IP, []int{})
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 9, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	src.SendUDP(flow, 100, 724, 0)
	n.sim.Run(10 * sim.Millisecond)
	e.Stop()
	n.sim.RunAll()
	for k := range e.Detected() {
		if k.Type == fevent.TypeDrop {
			t.Fatal("unwatched flow's drop detected")
		}
	}
}

func TestNetSightFullCoverage(t *testing.T) {
	n := newBlNet(t, dataplane.Config{QueueLimitBytes: 32 << 10})
	ns := NewNetSight(10 * sim.Microsecond)
	n.addMonitor(ns)
	// Mixed events: a blackhole plus an incast.
	src, dst := n.hosts[0], n.hosts[31]
	tor := n.fab.HostPorts[src.Node.ID][0].Switch
	tor.SetRouteOverride(dst.Node.IP, []int{})
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 9, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	src.SendUDP(flow, 50, 724, 0)
	workload.Incast(n.sim, n.hosts[8:24], n.hosts[1], 1<<19, 1000, 0)
	n.sim.RunAll()

	// NetSight must cover every ground-truth drop flow event.
	want := n.gt.DropFlowEvents(nil)
	det := ns.Detected()
	for k := range want {
		if k.Code == fevent.DropCorruption {
			continue // MAC discards have no postcard
		}
		if !det[k] {
			t.Fatalf("NetSight missed drop event %+v", k)
		}
	}
	// And every congestion flow event.
	for _, e := range n.gt.Events {
		if e.Key.Type == fevent.TypeCongestion && !det[e.Key] {
			t.Fatalf("NetSight missed congestion event %+v", e.Key)
		}
	}
	if ns.OverheadBytes() == 0 || ns.Postcards() == 0 {
		t.Error("no postcard overhead recorded")
	}
}

func TestSNMPSeesVisibleMissesSilent(t *testing.T) {
	// What an SNMP poller reads: the summed per-port drop counters of
	// every switch. A blackhole shows in them; a parity error does not.
	n := newBlNet(t, dataplane.Config{})
	counterDrops := func() uint64 {
		var total uint64
		n.fab.EachSwitch(func(sw *dataplane.Switch) {
			for port := 0; port < sw.NumPorts(); port++ {
				total += sw.Counters(port).Drops
			}
		})
		return total
	}
	src, dst := n.hosts[0], n.hosts[31]
	tor := n.fab.HostPorts[src.Node.ID][0].Switch
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 9, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	// Visible drops: blackhole.
	tor.SetRouteOverride(dst.Node.IP, []int{})
	src.SendUDP(flow, 20, 724, 0)
	n.sim.Run(2 * sim.Millisecond)
	visible := counterDrops()
	if visible != 20 {
		t.Errorf("counters saw %d visible drops, want 20", visible)
	}
	// Silent drops: parity error — invisible to counters.
	tor.ClearRouteOverride(dst.Node.IP)
	tor.InjectParityError(dst.Node.IP)
	src.SendUDP(flow, 20, 724, 0)
	n.sim.RunAll()
	if got := counterDrops(); got != visible {
		t.Errorf("counter drops moved on silent drops: %d → %d", visible, got)
	}
	if got := n.gt.TypePackets[fevent.TypeDrop]; got != 40 {
		t.Errorf("ground truth drops = %d, want 40", got)
	}
}

func TestPingmeshProbesAndDetectsSlowPaths(t *testing.T) {
	n := newBlNet(t, dataplane.Config{QueueLimitBytes: 1 << 20})
	// Probe among 4 hosts only (full mesh of 32 is heavy for a unit
	// test).
	pm := NewPingmesh(n.sim, n.hosts[:4], n.routes, sim.Millisecond, 50*sim.Microsecond)
	n.sim.Run(5*sim.Millisecond + 500*sim.Microsecond)
	sent, echoed := pm.SentEchoed()
	if sent == 0 || echoed == 0 {
		t.Fatalf("probes sent=%d echoed=%d", sent, echoed)
	}
	if echoed != sent {
		t.Errorf("idle fabric: %d of %d probes echoed", echoed, sent)
	}
	if len(pm.Slow) != 0 {
		t.Errorf("slow probes on idle fabric: %d", len(pm.Slow))
	}
	// Congest host 0's ToR downlink with an incast while probing.
	workload.Incast(n.sim, n.hosts[8:24], n.hosts[0], 1<<20, 1000, 0)
	n.sim.Run(40 * sim.Millisecond)
	pm.Stop()
	n.sim.RunAll()
	if len(pm.Slow)+len(pm.Lost) == 0 {
		t.Error("pingmesh saw nothing during a heavy incast")
	}
}
