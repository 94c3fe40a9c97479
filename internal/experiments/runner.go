// Package experiments assembles the paper's evaluation (§5): it builds
// the 10-switch testbed with NetSeer and the baseline monitors attached,
// drives the five traffic distributions with fault injection, and
// computes every figure of the evaluation section — coverage (Fig. 9–10),
// overhead (Fig. 11, 13), capacity (Fig. 12, 14, 15), the case studies
// (Fig. 8) and the resource accounting (Fig. 7).
package experiments

import (
	"fmt"

	"netseer/internal/baselines"
	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/host"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// RunConfig parameterizes one testbed run.
type RunConfig struct {
	// Dist and Load drive the generator (defaults WEB at 0.70).
	Dist *workload.Distribution
	Load float64
	// Window is the measurement duration (default 5 ms — scaled-down
	// simulated time; cmd/repro uses longer windows).
	Window sim.Time
	// Seed fixes all randomness.
	Seed uint64

	// Clients/Servers split the 32 hosts (defaults: 8 clients, 24
	// servers, fan-in 4 as in §5.2).
	Clients int
	FanIn   int

	// Switch and NetSeer configuration.
	SwCfg dataplane.Config
	NSCfg core.Config

	// Monitors to attach.
	NetSeer      bool
	NetSight     bool
	EverFlow     bool
	SamplerRates []int // e.g. {10, 100, 1000}
	Pingmesh     bool

	// Fault injection for event-type coverage (Fig. 9).
	InjectLinkLoss    bool // random silent loss on one fabric link
	InjectPipelineBug bool // mid-run blackhole of one destination
	InjectPathChange  bool // mid-run route flip for one destination
	InjectIncast      bool // line-rate fan-in burst (MMU congestion drops)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Dist == nil {
		c.Dist = workload.WEB
	}
	if c.Load <= 0 {
		c.Load = 0.70
	}
	if c.Window <= 0 {
		c.Window = 5 * sim.Millisecond
	}
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.FanIn <= 0 {
		c.FanIn = 4
	}
	if c.SwCfg.CongestionThreshold <= 0 {
		c.SwCfg.CongestionThreshold = 10 * sim.Microsecond
	}
	return c
}

// everFlowWatch scales EverFlow's on-demand watchlist to the scaled-down
// flow population (the paper's 1,000 flows of ~800 K).
const everFlowWatch = 16

// Testbed is an assembled evaluation network.
type Testbed struct {
	Cfg   RunConfig
	Sim   *sim.Simulator
	Fab   *dataplane.Fabric
	GT    *dataplane.GroundTruth
	Hosts []*host.Host
	Gen   *workload.Generator

	Store    *collector.Store
	NetSeers []*core.NetSeerSwitch

	NetSight *baselines.NetSight
	EverFlow *baselines.EverFlow
	Samplers []*baselines.Sampler
	Pingmesh *baselines.Pingmesh
}

// NewTestbed builds the fabric, hosts, monitors and generator.
func NewTestbed(cfg RunConfig) *Testbed {
	cfg = cfg.withDefaults()
	fab := dataplane.BuildFabric(topo.Testbed(), cfg.SwCfg, cfg.Seed)
	s := fab.Sim
	tb := &Testbed{
		Cfg: cfg, Sim: s, Fab: fab, GT: fab.GT,
		Hosts: host.Attach(fab, nic.Config{}), Store: collector.NewStore(),
	}
	if cfg.NetSeer {
		tb.NetSeers = core.Deploy(fab, cfg.NSCfg, tb.Store)
	}
	if cfg.NetSight {
		tb.NetSight = baselines.NewNetSight(cfg.SwCfg.CongestionThreshold)
		tb.addMonitor(tb.NetSight)
		fab.AddLinkLossHook(tb.NetSight.OnLinkLost)
	}
	if cfg.EverFlow {
		// Rotation compressed to the simulated window so the watchlist
		// actually rotates, as it would over the paper's longer runs.
		tb.EverFlow = baselines.NewEverFlow(s, cfg.SwCfg.CongestionThreshold, cfg.Window/4, cfg.Seed)
		tb.EverFlow.WatchSize = everFlowWatch
		tb.addMonitor(tb.EverFlow)
	}
	for _, n := range cfg.SamplerRates {
		sp := baselines.NewSampler(n, cfg.SwCfg.CongestionThreshold)
		tb.Samplers = append(tb.Samplers, sp)
		tb.addMonitor(sp)
	}
	if cfg.Pingmesh {
		// One round per second in the paper; compressed to window/4 so
		// probes exist inside short simulated windows.
		tb.Pingmesh = baselines.NewPingmesh(s, tb.Hosts, fab.Routes, cfg.Window/4, 50*sim.Microsecond)
	}
	clients := tb.Hosts[:cfg.Clients]
	servers := tb.Hosts[cfg.Clients:]
	tb.Gen = workload.NewGenerator(s, clients, servers, workload.GenConfig{
		Dist: cfg.Dist, Load: cfg.Load, FanIn: cfg.FanIn, Seed: cfg.Seed,
	})
	return tb
}

func (tb *Testbed) addMonitor(m dataplane.Monitor) {
	tb.Fab.EachSwitch(func(sw *dataplane.Switch) { sw.AddMonitor(m) })
}

// Run drives the workload for the configured window, injecting the
// configured faults at fixed fractions of the window, then flushes and
// drains everything.
func (tb *Testbed) Run() {
	cfg := tb.Cfg
	tb.Gen.Start()
	if cfg.InjectLinkLoss {
		// Silent random loss on one core-facing fabric link for the
		// middle half of the window.
		l := tb.Fab.LinkBetween("agg0-0", "core0")
		tb.Sim.Schedule(cfg.Window/4, func() {
			l.SetFault(true, link.Fault{SilentLossProb: 0.02})
			l.SetFault(false, link.Fault{SilentLossProb: 0.02})
		})
		tb.Sim.Schedule(3*cfg.Window/4, func() {
			l.SetFault(true, link.Fault{})
			l.SetFault(false, link.Fault{})
		})
	}
	if cfg.InjectPipelineBug {
		// Blackhole one server on its ToR for a slice of the window.
		victim := tb.Hosts[len(tb.Hosts)-1]
		tor := tb.Fab.HostPorts[victim.Node.ID][0].Switch
		tb.Sim.Schedule(cfg.Window/4, func() { tor.SetRouteOverride(victim.Node.IP, []int{}) })
		tb.Sim.Schedule(cfg.Window/2, func() { tor.ClearRouteOverride(victim.Node.IP) })
	}
	if cfg.InjectPathChange {
		// Pin one destination to a single uplink, flip it mid-run, and
		// keep a set of long-lived flows toward it alive across the flip
		// so genuine re-path events exist.
		victim := tb.Hosts[len(tb.Hosts)-2]
		for node, sw := range tb.Fab.Switches {
			sw := sw
			if sw.NumPorts() < 2 {
				continue
			}
			hops := tb.Fab.Routes.NextHops(node, victim.Node.IP)
			if len(hops) >= 2 {
				sw.SetRouteOverride(victim.Node.IP, hops[:1])
				tb.Sim.Schedule(cfg.Window/2, func() {
					sw.SetRouteOverride(victim.Node.IP, hops[1:])
				})
			}
		}
		for tick := sim.Time(0); tick < cfg.Window; tick += 200 * sim.Microsecond {
			tick := tick
			tb.Sim.At(tick, func() {
				for ci := 0; ci < 4; ci++ {
					client := tb.Hosts[ci]
					for fi := 0; fi < 16; fi++ {
						flow := pkt.FlowKey{
							SrcIP: client.Node.IP, DstIP: victim.Node.IP,
							SrcPort: uint16(47000 + ci*64 + fi), DstPort: workload.DataPort,
							Proto: pkt.ProtoTCP,
						}
						client.SendUDP(flow, 1, 724, 0)
					}
				}
			})
		}
	}
	if cfg.InjectIncast {
		// A line-rate fan-in burst onto one server: queue overflow and
		// MMU congestion drops (the paper's runs produce these naturally
		// over hours; short windows need the nudge).
		tb.Sim.Schedule(cfg.Window/3, func() {
			workload.Incast(tb.Sim, tb.Hosts[16:28], tb.Hosts[8], 512<<10, 1000, 0)
		})
	}
	tb.Sim.Run(cfg.Window)
	tb.Gen.Stop()
	tb.StopAndDrain()
}

// StopAndDrain stops the periodic baselines, then drains NetSeer and the
// remaining simulator work.
func (tb *Testbed) StopAndDrain() {
	if tb.EverFlow != nil {
		tb.EverFlow.Stop()
	}
	if tb.Pingmesh != nil {
		tb.Pingmesh.Stop()
	}
	core.Drain(tb.Sim, tb.NetSeers)
}

// NetSeerDetections converts the collector's contents into the common
// detection-set format.
func (tb *Testbed) NetSeerDetections() baselines.Detections {
	det := make(baselines.Detections)
	events := tb.Store.Query(collector.Filter{})
	for i := range events {
		det[dataplane.EventKey(&events[i])] = true
	}
	return det
}

// NetSeerStats aggregates per-switch NetSeer stats.
func (tb *Testbed) NetSeerStats() core.Stats { return core.Sum(tb.NetSeers) }

// Coverage computes |detected ∩ truth| / |truth|.
func Coverage(truth map[dataplane.FlowEventKey]int, det baselines.Detections) float64 {
	if len(truth) == 0 {
		return 0
	}
	hit := 0
	for k := range truth {
		if det[k] {
			hit++
		}
	}
	return float64(hit) / float64(len(truth))
}

// String identifies the run configuration in output.
func (c RunConfig) String() string {
	return fmt.Sprintf("%s load=%.0f%% window=%v seed=%d", c.Dist.Name, c.Load*100, c.Window, c.Seed)
}
