package oracle

import (
	"fmt"

	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/sketch"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// Result is everything a checker needs: the omniscient ledger, the
// collector's view, the exported batches (deep copies, in delivery
// order), and the per-switch pipeline accounting.
type Result struct {
	Sc    Scenario
	GT    *dataplane.GroundTruth
	Store *collector.Store
	// Batches are deep copies of every batch the switch CPUs exported, in
	// delivery order; the delivery checker replays them over a faulty TCP
	// channel.
	Batches []*fevent.Batch
	// Stats aggregates the per-switch NetSeer accounting; BySwitch keeps
	// the individual copies keyed by switch ID. A switch with zero
	// GroupEvictions has exact per-key packet counters (one aggregation
	// run per key, final count emitted at flush).
	Stats    core.Stats
	BySwitch map[uint16]core.Stats
	// SketchCfg is the effective (defaulted) sketch stage configuration
	// every switch ran with; the sketch checker derives its thresholds
	// and error slacks from it.
	SketchCfg sketch.Config
}

// teeSink is the in-process EventSink: it forwards each batch to the
// local store and keeps a deep copy (the batcher reuses the events slice
// after delivery, so sharing it would corrupt the record).
type teeSink struct {
	store   *collector.Store
	batches []*fevent.Batch
}

func (t *teeSink) Deliver(b *fevent.Batch) {
	cp := &fevent.Batch{
		SwitchID:  b.SwitchID,
		Timestamp: b.Timestamp,
		Events:    append([]fevent.Event(nil), b.Events...),
	}
	t.batches = append(t.batches, cp)
	t.store.Deliver(cp)
}

// Run executes one scenario end to end and returns the reconciliation
// inputs. Deterministic in sc.
func Run(sc Scenario) *Result {
	sc = sc.Normalize()
	var tp *topo.Topology
	switch sc.Topo {
	case TopoLine2:
		tp = topo.Line(2, 0, 0, 0)
	case TopoLine3:
		tp = topo.Line(3, 0, 0, 0)
	case TopoTestbed:
		tp = topo.Testbed()
	default:
		tp = topo.FatTree(topo.FatTreeConfig{K: 4})
	}
	swCfg := dataplane.Config{CongestionThreshold: 10 * sim.Microsecond}
	if sc.Pause {
		swCfg.LosslessMask = 1 << 3
		swCfg.PFCXoffBytes = 48 << 10
		swCfg.PFCXonBytes = 24 << 10
	}
	fab := dataplane.BuildFabric(tp, swCfg, sc.Seed)
	s, gt := fab.Sim, fab.GT
	hosts := host.Attach(fab, nic.Config{})

	// Capacity budgets are effectively unlimited: the oracle verifies
	// detection logic, not capacity loss, so the Lost* counters must stay
	// zero (checkers assert the ones that should).
	nsCfg := core.Config{
		GroupSlots:      int(sc.GroupSlots),
		GroupC:          uint16(sc.GroupC),
		RingSlots:       int(sc.RingSlots),
		MMURedirectBps:  1e15,
		InternalPortBps: 1e15,
		ExportBps:       1e15,
		// The sketch stage runs in every scenario — the sketch checker's
		// claims must hold on clean and faulted fabrics alike. Thresholds
		// are sized so modest oracle workloads genuinely cross them.
		Sketch: true,
		SketchCfg: sketch.Config{
			TopK:            16,
			HHThresholdPkts: 24,
			ChurnMin:        4,
			SpikeBytes:      32 << 10,
		},
	}
	sink := &teeSink{store: collector.NewStore()}
	netseers := core.Deploy(fab, nsCfg, sink)
	// Ground truth mirrors the sketch stage's exact aggregates: same
	// window, same stream (pre-MMU pipeline survivors). Set before any
	// traffic is scheduled so the ledgers cover every packet.
	effSketch := netseers[0].Sketch().Config()
	gt.SketchWindow = effSketch.Window

	rng := sim.NewStream(sc.Seed, "oracle")
	lane := pickLane(fab, hosts, rng)
	scheduleWorkload(s, sc, hosts, lane, rng)
	scheduleFaults(s, sc, fab, hosts, lane, rng)

	s.Run(Window)
	core.Drain(s, netseers)

	res := &Result{
		Sc: sc, GT: gt, Store: sink.store, Batches: sink.batches,
		Stats:     core.Sum(netseers),
		BySwitch:  make(map[uint16]core.Stats),
		SketchCfg: effSketch,
	}
	for _, ns := range netseers {
		res.BySwitch[ns.Switch().ID] = ns.Stats()
	}
	return res
}

// lane is the instrumented path every fault schedule targets: a source
// host, its ToR, one ToR fabric uplink (the fault link), and a remote
// destination host pinned through that uplink. Faulting exactly one
// direction of one switch–switch link keeps the reverse path clean for
// loss notifications, and the lane's fixed packet schedule guarantees
// both victims during the fault phase and trailer packets after it.
type lane struct {
	src, dst *host.Host
	tor      *dataplane.Switch
	link     *link.Link
	fromA    bool // fault direction: ToR → fabric
	torPort  int  // ToR egress port onto the fault link
}

// pickLane chooses the lane deterministically from rng.
func pickLane(fab *dataplane.Fabric, hosts []*host.Host, rng *sim.Stream) lane {
	tp := fab.Topo
	src := hosts[rng.Intn(len(hosts))]
	at := fab.HostPorts[src.Node.ID][0]
	torNode := fab.Node(at.Switch)
	l := lane{src: src, tor: at.Switch}
	// First switch–switch link touching the ToR (in topology order, so
	// deterministic).
	for i, tl := range tp.Links() {
		aSw := tp.Node(tl.A).Kind == topo.KindSwitch
		bSw := tp.Node(tl.B).Kind == topo.KindSwitch
		if !aSw || !bSw {
			continue
		}
		if tl.A != torNode && tl.B != torNode {
			continue
		}
		l.link = fab.Links[i]
		l.fromA = tl.A == torNode
		if l.fromA {
			l.torPort = tl.APort
		} else {
			l.torPort = tl.BPort
		}
		break
	}
	if l.link == nil {
		panic(fmt.Sprintf("oracle: no fabric uplink on ToR of %s", src.Node.Name))
	}
	// Destination: any host not under the same ToR. Every topology the
	// oracle builds has one.
	for _, h := range hosts {
		if fab.HostPorts[h.Node.ID][0].Switch != l.tor {
			l.dst = h
			break
		}
	}
	if l.dst == nil {
		panic("oracle: no remote host for lane destination")
	}
	return l
}

// scheduleWorkload installs the background flows and the lane flows.
func scheduleWorkload(s *sim.Simulator, sc Scenario, hosts []*host.Host, ln lane, rng *sim.Stream) {
	// Lane flows: two fixed 5-tuples pinned through the fault link, one
	// packet every Window/64 across the whole window — victims during the
	// fault phase, trailer packets after it.
	for i := 0; i < 2; i++ {
		flow := pkt.FlowKey{
			SrcIP: ln.src.Node.IP, DstIP: ln.dst.Node.IP,
			SrcPort: uint16(40001 + i), DstPort: workload.DataPort,
			Proto: pkt.ProtoUDP,
		}
		for t := sim.Time(0); t <= Window; t += Window / 64 {
			t := t
			s.At(t, func() { ln.src.SendUDP(flow, 1, 724, 0) })
		}
	}
	// Zipf-skewed traffic: one host pair, a pool of flows distinguished by
	// source port, packets distributed by Zipf rank. Low ranks become
	// genuine heavy hitters at the pair's ToRs; the tail stays mice. All
	// flows share a path, so the per-switch sketch sees the full skew.
	if sc.ZipfSkew > 0 {
		zsrc := hosts[rng.Intn(len(hosts))]
		zdst := hosts[rng.Intn(len(hosts))]
		if zdst == zsrc {
			zdst = hosts[(rng.Intn(len(hosts))+1)%len(hosts)]
		}
		if zdst != zsrc {
			const zipfFlows, zipfPkts = 24, 600
			z := workload.NewZipf(zipfFlows, float64(sc.ZipfSkew)/10)
			for p := 0; p < zipfPkts; p++ {
				flow := pkt.FlowKey{
					SrcIP: zsrc.Node.IP, DstIP: zdst.Node.IP,
					SrcPort: uint16(30000 + z.Rank(rng)), DstPort: workload.DataPort,
					Proto: pkt.ProtoUDP,
				}
				at := sim.Time(rng.Intn(int(3 * Window / 4)))
				s.At(at, func() { zsrc.SendUDP(flow, 1, 512, 0) })
			}
		}
	}
	// Elephant/mice mix: each elephant sends enough packets on its own to
	// cross the heavy-hitter threshold at its ToR, against the mice of the
	// background set.
	for i := 0; i < int(sc.Elephants); i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if dst == src {
			dst = hosts[(rng.Intn(len(hosts))+1)%len(hosts)]
			if dst == src {
				continue
			}
		}
		flow := pkt.FlowKey{
			SrcIP: src.Node.IP, DstIP: dst.Node.IP,
			SrcPort: uint16(31000 + i), DstPort: workload.DataPort,
			Proto: pkt.ProtoUDP,
		}
		for p := 0; p < 48; p++ {
			at := sim.Time(rng.Intn(int(3 * Window / 4)))
			s.At(at, func() { src.SendUDP(flow, 1, 900, 0) })
		}
	}
	// DDoS-shaped aggregate: a fan-in byte burst onto one receiver,
	// concentrated enough that the receiver-side egress link crosses the
	// per-window spike threshold. Normalize() disables this on the line
	// topologies, which lack spare senders.
	if sc.AggIncast {
		var senders []*host.Host
		for _, h := range hosts {
			if h != ln.src && h != ln.dst && len(senders) < 8 {
				senders = append(senders, h)
			}
		}
		if len(senders) > 0 {
			s.Schedule(Window/8, func() {
				workload.Incast(s, senders, ln.dst, 128<<10, 1000, 0)
			})
		}
	}
	// Background flows: random pairs, random schedules in [0, 3W/4).
	for i := 0; i < int(sc.Flows); i++ {
		src := hosts[rng.Intn(len(hosts))]
		dst := hosts[rng.Intn(len(hosts))]
		if dst == src {
			dst = hosts[(rng.Intn(len(hosts))+1)%len(hosts)]
			if dst == src {
				continue
			}
		}
		flow := pkt.FlowKey{
			SrcIP: src.Node.IP, DstIP: dst.Node.IP,
			SrcPort: uint16(20000 + i), DstPort: workload.DataPort,
			Proto: pkt.ProtoUDP,
		}
		wire := 128 + rng.Intn(1272)
		for p := 0; p < int(sc.Pkts); p++ {
			at := sim.Time(rng.Intn(int(3 * Window / 4)))
			s.At(at, func() { src.SendUDP(flow, 1, wire, 0) })
		}
	}
}

// scheduleFaults installs the scenario's fault schedule. Pipeline-drop
// victims target the lane source's address so every topology exercises
// them: all traffic toward the source must traverse its ToR, where the
// fault is installed. Blackhole and parity time-share the victim address
// (blackhole [W/4, W/2), parity [W/2, 3W/4)) because both key on dstIP.
func scheduleFaults(s *sim.Simulator, sc Scenario, fab *dataplane.Fabric, hosts []*host.Host, ln lane, rng *sim.Stream) {
	// Pin the lane destination through the fault link so lane traffic is
	// guaranteed to cross it (ECMP would otherwise spread it).
	ln.tor.SetRouteOverride(ln.dst.Node.IP, []int{ln.torPort})

	if sc.LossPct > 0 || sc.CorruptPct > 0 {
		f := link.Fault{
			SilentLossProb: float64(sc.LossPct) / 100,
			CorruptProb:    float64(sc.CorruptPct) / 100,
		}
		s.Schedule(Window/4, func() { ln.link.SetFault(ln.fromA, f) })
		s.Schedule(3*Window/4, func() { ln.link.SetFault(ln.fromA, link.Fault{}) })
	}
	if sc.LossBurst > 0 {
		n := int(sc.LossBurst)
		s.Schedule(Window/2, func() { ln.link.InjectLossBurst(ln.fromA, n) })
	}

	victim := ln.src // drop-fault victim destination (see doc comment)
	if sc.Blackhole {
		s.Schedule(Window/4, func() { ln.tor.SetRouteOverride(victim.Node.IP, []int{}) })
		s.Schedule(Window/2, func() { ln.tor.ClearRouteOverride(victim.Node.IP) })
	}
	if sc.Parity {
		s.Schedule(Window/2, func() { ln.tor.InjectParityError(victim.Node.IP) })
		s.Schedule(3*Window/4, func() { ln.tor.ClearParityError(victim.Node.IP) })
	}
	if sc.Blackhole || sc.Parity {
		// Victim traffic: the lane destination sends toward the victim
		// through the fault window; every packet crosses the victim's ToR.
		flow := pkt.FlowKey{
			SrcIP: ln.dst.Node.IP, DstIP: victim.Node.IP,
			SrcPort: 41001, DstPort: workload.DataPort, Proto: pkt.ProtoUDP,
		}
		for t := Window / 4; t < 3*Window/4; t += Window / 64 {
			t := t
			s.At(t, func() { ln.dst.SendUDP(flow, 1, 512, 0) })
		}
	}
	if sc.ACLDeny {
		// Deny one well-known destination port on the ToR and send
		// matching traffic from a directly attached host; ACL is evaluated
		// before routing, so the victims never reach the fault link.
		ln.tor.ACL().Add(dataplane.ACLRule{
			ID: 7, Action: dataplane.ACLDeny,
			MatchDstPort: true, DstPort: 9999,
		})
		flow := pkt.FlowKey{
			SrcIP: ln.src.Node.IP, DstIP: ln.dst.Node.IP,
			SrcPort: 42001, DstPort: 9999, Proto: pkt.ProtoUDP,
		}
		for t := Window / 4; t < 3*Window/4; t += Window / 32 {
			t := t
			s.At(t, func() { ln.src.SendUDP(flow, 1, 256, 0) })
		}
	}
	if sc.PathFlip {
		// Pin one destination to a single next hop on every ECMP switch,
		// flip to the alternate mid-run, and keep long-lived flows toward
		// it alive across the flip (idiom from experiments.Run).
		flip := ln.dst
		for nid, sw := range fab.Switches {
			sw := sw
			hops := fab.Routes.NextHops(nid, flip.Node.IP)
			if len(hops) < 2 || sw == ln.tor {
				continue
			}
			sw.SetRouteOverride(flip.Node.IP, hops[:1])
			s.Schedule(Window/2, func() { sw.SetRouteOverride(flip.Node.IP, hops[1:]) })
		}
		for t := sim.Time(0); t < Window; t += Window / 16 {
			t := t
			s.At(t, func() {
				for fi := 0; fi < 4; fi++ {
					flow := pkt.FlowKey{
						SrcIP: ln.src.Node.IP, DstIP: flip.Node.IP,
						SrcPort: uint16(43001 + fi), DstPort: workload.DataPort,
						Proto: pkt.ProtoTCP,
					}
					ln.src.SendUDP(flow, 1, 724, 0)
				}
			})
		}
	}
	if sc.Incast || sc.Pause {
		// Fan-in burst onto one receiver; priority 3 is the lossless class
		// when Pause is set, so the same burst produces PFC pause events.
		var senders []*host.Host
		for _, h := range hosts {
			if h != ln.src && h != ln.dst && len(senders) < 8 {
				senders = append(senders, h)
			}
		}
		var prio uint8
		if sc.Pause {
			prio = 3
		}
		s.Schedule(Window/3, func() {
			workload.Incast(s, senders, ln.dst, 256<<10, 1000, prio)
		})
	}
	_ = rng
}
