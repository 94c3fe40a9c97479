package experiments

import (
	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/groupcache"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// This file implements the evaluations the paper describes but could not
// or did not run, plus the design-choice ablations called out in
// DESIGN.md:
//
//   - pause-event coverage (the paper's SmartNICs lacked PFC support, so
//     §5.2 footnote 1 skips pauses; our NICs support it)
//   - inter-card drop detection on a multi-board switch (§3.3 mentions
//     the mechanism without evaluating it)
//   - partial deployment (§2.3: NetSeer on a subset of switches)
//   - dedup ablation: group caching vs a Bloom filter (false negatives)
//   - batching ablation: CEBPs vs one-event-per-packet (62.5% overhead)
//   - inter-switch ablation: coverage without the seq/ring machinery

// PauseCoverageResult reports the pause-event experiment.
type PauseCoverageResult struct {
	TruthPauses int
	Coverage    float64
	// PFCFramesSeen confirms PFC actually fired.
	PFCFramesSeen bool
}

// ExtPauseCoverage runs a lossless-priority incast that triggers PFC and
// measures NetSeer's pause-event coverage against ground truth.
func ExtPauseCoverage(seed uint64) *PauseCoverageResult {
	cfg := RunConfig{
		Dist: workload.CACHE, Load: 0.3, Window: 4 * sim.Millisecond, Seed: seed,
		NetSeer: true,
		SwCfg: dataplane.Config{
			LosslessMask: 1 << 3, PFCXoffBytes: 48 << 10, PFCXonBytes: 24 << 10,
			QueueLimitBytes: 4 << 20,
		},
	}
	tb := NewTestbed(cfg)
	// A lossless-class incast: 12 senders to one receiver on priority 3.
	tb.Sim.Schedule(cfg.Window/8, func() {
		workload.Incast(tb.Sim, tb.Hosts[16:28], tb.Hosts[0], 1<<20, 1000, 3)
	})
	// Keep priority-3 traffic flowing into the paused region so pause
	// events (packets arriving to paused queues) occur.
	for tick := cfg.Window / 8; tick < cfg.Window; tick += 100 * sim.Microsecond {
		tick := tick
		tb.Sim.At(tick, func() {
			for ci := 0; ci < 4; ci++ {
				flow := pkt.FlowKey{
					SrcIP: tb.Hosts[ci].Node.IP, DstIP: tb.Hosts[0].Node.IP,
					SrcPort: uint16(46000 + ci), DstPort: workload.DataPort, Proto: pkt.ProtoTCP,
				}
				tb.Hosts[ci].SendUDP(flow, 4, 1000, 3)
			}
		})
	}
	tb.Run()

	truth := tb.GT.PauseFlowEvents()
	det := tb.NetSeerDetections()
	return &PauseCoverageResult{
		TruthPauses:   len(truth),
		Coverage:      Coverage(truth, det),
		PFCFramesSeen: tb.GT.TypePackets[fevent.TypePause] > 0,
	}
}

// InterCardResult reports the multi-board experiment.
type InterCardResult struct {
	Injected  int
	Recovered int
	// WrongFlow counts misattributed recoveries (must be zero).
	WrongFlow int
}

// ExtInterCardDetection models a 2-board switch as two pipelines joined
// by a backplane link, marks the backplane ports inter-card, injects
// silent backplane drops, and verifies recovery with the inter-card code.
func ExtInterCardDetection(seed uint64) *InterCardResult {
	// hA — board0 ═(backplane)═ board1 — hB: exactly the Line topology,
	// with the inter-switch link reinterpreted as the backplane.
	tp := topo.Line(2, 400e9, 25e9, 100*sim.Nanosecond) // backplane: fat and short
	fab := dataplane.BuildFabric(tp, dataplane.Config{}, seed)
	s := fab.Sim
	store := collector.NewStore()
	nss := core.Deploy(fab, core.Config{}, store)
	for _, ns := range nss {
		ns.MarkInterCard(0) // port 0 is the board-to-board link on both
	}
	hA, _ := tp.NodeByName("hA")
	hB, _ := tp.NodeByName("hB")
	sinkDev := &countingDevice{}
	fab.AttachHost(hA.ID, sinkDev)
	fab.AttachHost(hB.ID, sinkDev)
	at := fab.HostPorts[hA.ID][0]
	backplane := fab.LinkBetween("sw0", "sw1")

	victim := pkt.FlowKey{SrcIP: hA.IP, DstIP: hB.IP, SrcPort: 999, DstPort: 80, Proto: pkt.ProtoTCP}
	bg := pkt.FlowKey{SrcIP: hA.IP, DstIP: hB.IP, SrcPort: 1, DstPort: 80, Proto: pkt.ProtoTCP}
	var id uint64
	send := func(f pkt.FlowKey) {
		id++
		at.Link.Send(at.FromA, &pkt.Packet{ID: id, Kind: pkt.KindData, Flow: f, WireLen: 724, TTL: 8})
	}
	for i := 0; i < 5; i++ {
		send(bg)
	}
	s.Run(50 * sim.Microsecond)
	const injected = 4
	backplane.InjectLossBurst(true, injected)
	for i := 0; i < injected; i++ {
		send(victim)
	}
	for i := 0; i < 20; i++ {
		send(bg)
	}
	s.Run(sim.Millisecond)
	core.Drain(s, nss)

	res := &InterCardResult{Injected: injected}
	for _, e := range store.Query(collector.Filter{Type: fevent.TypeDrop, DropCode: fevent.DropInterCard}) {
		if e.Flow != victim {
			res.WrongFlow++
			continue
		}
		if int(e.Count) > res.Recovered {
			res.Recovered = int(e.Count)
		}
	}
	return res
}

// PartialDeploymentResult compares coverage of full vs partial NetSeer
// deployment.
type PartialDeploymentResult struct {
	FullCoverage    float64
	PartialCoverage float64
	// DeployedSwitches lists how many switches ran NetSeer in the partial
	// configuration.
	DeployedSwitches int
	TotalSwitches    int
}

// ExtPartialDeployment deploys NetSeer on the edge layer only (the §2.3
// "partial deployment to monitor flows of specific applications") and
// compares pipeline-drop coverage against the full deployment. Events at
// unmonitored switches are invisible, so coverage equals the share of
// ground truth that happens at monitored devices.
func ExtPartialDeployment(seed uint64) *PartialDeploymentResult {
	run := func(edgeOnly bool) (float64, int, int) {
		// NetSeer off in NewTestbed; it goes on the deployed switches only.
		tb := NewTestbed(RunConfig{
			Dist: workload.WEB, Load: 0.6, Window: 3 * sim.Millisecond, Seed: seed,
		})
		cfg, s, fab, tp := tb.Cfg, tb.Sim, tb.Fab, tb.Fab.Topo
		deployed := 0
		for _, node := range tp.Switches() {
			if edgeOnly && node.Layer != topo.LayerEdge {
				continue
			}
			deployed++
			tb.NetSeers = append(tb.NetSeers, core.Attach(fab.Switches[node.ID], cfg.NSCfg, tb.Store))
		}
		// Two blackholes: one at an edge switch, one at a core switch.
		edgeVictim := tb.Hosts[len(tb.Hosts)-1]
		tor := fab.HostPorts[edgeVictim.Node.ID][0].Switch
		coreNode, _ := tp.NodeByName("core0")
		coreSw := fab.Switches[coreNode.ID]
		coreVictim := tb.Hosts[len(tb.Hosts)-2]
		s.Schedule(cfg.Window/4, func() {
			tor.SetRouteOverride(edgeVictim.Node.IP, []int{})
			coreSw.SetRouteOverride(coreVictim.Node.IP, []int{})
		})
		// Drive both victims.
		for tick := sim.Time(0); tick < cfg.Window; tick += 100 * sim.Microsecond {
			tick := tick
			s.At(tick, func() {
				for ci := 0; ci < 4; ci++ {
					for _, dst := range []uint32{edgeVictim.Node.IP, coreVictim.Node.IP} {
						flow := pkt.FlowKey{
							SrcIP: tb.Hosts[ci].Node.IP, DstIP: dst,
							SrcPort: uint16(52000 + ci), DstPort: workload.DataPort, Proto: pkt.ProtoTCP,
						}
						tb.Hosts[ci].SendUDP(flow, 2, 724, 0)
					}
				}
			})
		}
		tb.Run()
		truth := tb.GT.DropFlowEvents(fevent.DropCode.IsPipeline)
		return Coverage(truth, tb.NetSeerDetections()), deployed, len(tp.Switches())
	}
	full, _, total := run(false)
	partial, deployed, _ := run(true)
	return &PartialDeploymentResult{
		FullCoverage: full, PartialCoverage: partial,
		DeployedSwitches: deployed, TotalSwitches: total,
	}
}

// DedupAblationResult compares group caching with the Bloom strawman on
// the same event-packet stream.
type DedupAblationResult struct {
	DistinctEvents int
	// Missed counts distinct flow events each scheme never reported.
	GroupCacheMissed int
	BloomMissed      int
	// Reports counts total reports emitted (volume cost).
	GroupCacheReports uint64
	BloomReports      uint64
}

// AblationDedup replays a recorded event-packet stream through both
// dedup schemes (§3.4's design argument).
func AblationDedup(seed uint64, packets int) *DedupAblationResult {
	rng := sim.NewStream(seed, "dedup-ablation")
	gcSeen := make(map[fevent.Key]bool)
	blSeen := make(map[fevent.Key]bool)
	truth := make(map[fevent.Key]bool)

	gc := groupcache.New(8192, 128, func(e *fevent.Event) { gcSeen[e.Key()] = true })
	bl := groupcache.NewBloomDedup(8192*14, 3, func(e *fevent.Event) { blSeen[e.Key()] = true })

	for i := 0; i < packets; i++ {
		// Zipf-ish flow popularity: a few hot flows, a long tail.
		var flowID uint32
		if rng.Bool(0.7) {
			flowID = uint32(rng.Intn(16))
		} else {
			flowID = uint32(rng.Intn(4096)) + 16
		}
		f := pkt.FlowKey{SrcIP: flowID, DstIP: 9, SrcPort: uint16(flowID), DstPort: 80, Proto: pkt.ProtoTCP}
		ev := &fevent.Event{Type: fevent.TypeCongestion, Flow: f, Hash: f.Hash(), QueueLatencyUs: 20}
		truth[ev.Key()] = true
		gc.Offer(ev)
		bl.Offer(ev)
	}
	gc.Flush()

	res := &DedupAblationResult{DistinctEvents: len(truth)}
	for k := range truth {
		if !gcSeen[k] {
			res.GroupCacheMissed++
		}
		if !blSeen[k] {
			res.BloomMissed++
		}
	}
	_, gcReports, _, _ := gc.Stats()
	_, blReports := bl.Stats()
	res.GroupCacheReports = gcReports
	res.BloomReports = blReports
	return res
}

// BatchingAblationResult compares CEBP batching against naive
// one-event-per-packet export.
type BatchingAblationResult struct {
	Events int
	// BatchedBytes is the export volume with 50-event batches.
	BatchedBytes int
	// PerPacketBytes is the volume with one 64-byte minimum Ethernet
	// frame per event (§3.5: "62.5% overhead").
	PerPacketBytes int
	// Saving = 1 - batched/perPacket.
	Saving float64
}

// AblationBatching computes the export-volume effect of batching.
func AblationBatching(events int) *BatchingAblationResult {
	batches := (events + fevent.DefaultBatchSize - 1) / fevent.DefaultBatchSize
	batched := batches*(14+fevent.BatchHeaderLen) + events*fevent.RecordLen
	perPacket := events * pkt.MinEthernetFrame
	return &BatchingAblationResult{
		Events:         events,
		BatchedBytes:   batched,
		PerPacketBytes: perPacket,
		Saving:         1 - float64(batched)/float64(perPacket),
	}
}

// SeqAblationResult compares inter-switch coverage with and without the
// seq/ring machinery.
type SeqAblationResult struct {
	WithSeq    float64
	WithoutSeq float64
}

// AblationInterSwitch measures inter-switch drop coverage with the
// mechanism on and off.
func AblationInterSwitch(seed uint64) *SeqAblationResult {
	run := func(disable bool) float64 {
		cfg := RunConfig{
			Dist: workload.WEB, Load: 0.5, Window: 3 * sim.Millisecond, Seed: seed,
			NetSeer:        true,
			NSCfg:          core.Config{DisableSeq: disable},
			InjectLinkLoss: true,
		}
		tb := NewTestbed(cfg)
		tb.Run()
		truth := tb.GT.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropInterSwitch })
		if len(truth) == 0 {
			return -1
		}
		return Coverage(truth, tb.NetSeerDetections())
	}
	return &SeqAblationResult{WithSeq: run(false), WithoutSeq: run(true)}
}

// HardwareFailureResult reports the §3.7-precondition experiment.
type HardwareFailureResult struct {
	// GroundTruthDrops is how many packets the dead hardware destroyed.
	GroundTruthDrops int
	// NetSeerEvents is what NetSeer reported for them (must be 0 — the
	// pipeline running NetSeer is itself broken).
	NetSeerEvents int
	// SyslogAlerts is what the switch self-check raised (must be > 0).
	SyslogAlerts int
}

// ExtHardwareFailure verifies the paper's stated coverage boundary:
// NetSeer cannot see drops from a malfunctioning ASIC; the switch's own
// self-check (syslog) is the detection path (Fig. 4 "malfunctioning"
// rows, §3.7).
func ExtHardwareFailure(seed uint64) *HardwareFailureResult {
	cfg := RunConfig{
		Dist: workload.WEB, Load: 0.4, Window: 2 * sim.Millisecond, Seed: seed,
		NetSeer: true,
	}
	tb := NewTestbed(cfg)
	coreNode, _ := tb.Fab.Topo.NodeByName("core0")
	coreSw := tb.Fab.Switches[coreNode.ID]
	alerts := 0
	coreSw.OnSyslog(func(dataplane.SyslogAlert) { alerts++ })
	tb.Sim.Schedule(cfg.Window/4, coreSw.InjectASICFailure)
	tb.Run()

	res := &HardwareFailureResult{
		SyslogAlerts:  alerts,
		NetSeerEvents: tb.Store.Count(collector.Filter{Type: fevent.TypeDrop, DropCode: fevent.DropASICFailure}),
	}
	for _, n := range tb.GT.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropASICFailure }) {
		res.GroundTruthDrops += n
	}
	return res
}
