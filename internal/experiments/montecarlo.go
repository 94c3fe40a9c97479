package experiments

import (
	"fmt"

	"netseer/internal/collector"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/incidents"
	"netseer/internal/link"
	"netseer/internal/metrics"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// Monte-Carlo incident replay: sample incident classes from the paper's
// production drop mix (Fig. 3), inject the corresponding fault into a
// fresh testbed run, and measure whether/when NetSeer surfaces the
// decisive evidence. This generalizes the five hand-picked Fig. 8(a)
// cases into a distributional claim: detection latency is microseconds
// for every class NetSeer covers (~90% of the mix), and the uncovered
// hardware classes alert via syslog instead.

// IncidentOutcome is one replayed incident.
type IncidentOutcome struct {
	Class incidents.DropClass
	// Detected reports the decisive evidence was found (NetSeer event, or
	// syslog for the uncovered hardware classes).
	Detected bool
	// ViaSyslog marks hardware-class detections.
	ViaSyslog bool
	// Latency is injection → evidence available.
	Latency sim.Time
	// PaperLocationMin is the sampled production location time for this
	// class without NetSeer (Fig. 3), for the speedup comparison.
	PaperLocationMin float64
}

// MonteCarloResult aggregates outcomes.
type MonteCarloResult struct {
	Outcomes []IncidentOutcome
	// DetectedFraction over all incidents (should be ~1.0: covered
	// classes via events, uncovered via syslog).
	DetectedFraction float64
	// EventFraction is the share detected via NetSeer events (~the
	// covered 90% of the mix).
	EventFraction float64
	// MedianLatency over event-detected incidents.
	MedianLatency sim.Time
}

// ExtIncidentMonteCarlo replays n incidents sampled from the Fig. 3 mix.
// The class sequence is drawn sequentially from one seeded stream (so it
// never depends on scheduling), then the independent replays — each with
// its own derived seed — fan out over the worker pool.
func ExtIncidentMonteCarlo(n int, seed uint64) *MonteCarloResult {
	rng := sim.NewStream(seed, "montecarlo")
	classes := make([]incidents.DropClass, n)
	for i := range classes {
		classes[i] = incidents.SampleDropClass(rng)
	}
	outcomes := parallelMap(n, func(i int) IncidentOutcome {
		out := replayIncident(classes[i], seed+uint64(i)*7919)
		out.PaperLocationMin = incidents.MeanLocationMinutes(classes[i])
		return out
	})
	res := &MonteCarloResult{Outcomes: outcomes}
	var detected, viaEvents int
	var eventLatencies []float64
	for _, out := range outcomes {
		if out.Detected {
			detected++
			if !out.ViaSyslog {
				viaEvents++
				eventLatencies = append(eventLatencies, float64(out.Latency))
			}
		}
	}
	res.DetectedFraction = float64(detected) / float64(n)
	res.EventFraction = float64(viaEvents) / float64(n)
	res.MedianLatency = sim.Time(metrics.Percentile(eventLatencies, 50))
	return res
}

// replayIncident injects one incident class and measures detection.
func replayIncident(class incidents.DropClass, seed uint64) IncidentOutcome {
	cfg := RunConfig{
		Dist: workload.WEB, Load: 0.5, Window: 3 * sim.Millisecond, Seed: seed,
		NetSeer: true,
	}
	tb := NewTestbed(cfg)
	victim := tb.Hosts[len(tb.Hosts)-1]
	injectAt := cfg.Window / 4

	var syslogSeen bool
	var faultSwitch *dataplane.Switch
	var wantCode fevent.DropCode
	interCard := false

	switch class {
	case incidents.PipelineDrop:
		tor := tb.Fab.HostPorts[victim.Node.ID][0].Switch
		faultSwitch = tor
		wantCode = fevent.DropNoRoute
		tb.Sim.Schedule(injectAt, func() { tor.SetRouteOverride(victim.Node.IP, []int{}) })
	case incidents.MMUCongestion:
		wantCode = fevent.DropMMUCongestion
		tb.Sim.Schedule(injectAt, func() {
			workload.Incast(tb.Sim, tb.Hosts[16:28], victim, 1<<20, 1000, 0)
		})
	case incidents.InterSwitchDrop, incidents.InterCardDrop:
		// Inter-card uses the same mechanism over a different link class;
		// in the testbed both manifest as a bad fabric link.
		interCard = class == incidents.InterCardDrop
		wantCode = fevent.DropInterSwitch
		l := tb.Fab.LinkBetween("agg1-1", "core1")
		tb.Sim.Schedule(injectAt, func() {
			l.SetFault(true, link.Fault{SilentLossProb: 0.05})
			l.SetFault(false, link.Fault{SilentLossProb: 0.05})
		})
	case incidents.ASICFailure, incidents.MMUFailure:
		coreNode, _ := tb.Fab.Topo.NodeByName("core0")
		sw := tb.Fab.Switches[coreNode.ID]
		sw.OnSyslog(func(dataplane.SyslogAlert) { syslogSeen = true })
		if class == incidents.ASICFailure {
			tb.Sim.Schedule(injectAt, sw.InjectASICFailure)
		} else {
			tb.Sim.Schedule(injectAt, sw.InjectMMUFailure)
		}
	}
	// Victim-directed traffic so pipeline-class faults have victims.
	for tick := sim.Time(0); tick < cfg.Window; tick += 100 * sim.Microsecond {
		tick := tick
		tb.Sim.At(tick, func() {
			for ci := 0; ci < 4; ci++ {
				flow := pkt.FlowKey{
					SrcIP: tb.Hosts[ci].Node.IP, DstIP: victim.Node.IP,
					SrcPort: uint16(55000 + ci), DstPort: workload.DataPort, Proto: pkt.ProtoTCP,
				}
				tb.Hosts[ci].SendUDP(flow, 2, 724, 0)
			}
		})
	}
	tb.Run()

	out := IncidentOutcome{Class: class, ViaSyslog: syslogSeen}
	if syslogSeen {
		out.Detected = true
		out.Latency = 0 // self-check alert is immediate
		return out
	}
	var first sim.Time = -1
	for _, e := range tb.Store.Query(collector.Filter{Type: fevent.TypeDrop, DropCode: wantCode, Since: injectAt}) {
		if faultSwitch != nil && e.SwitchID != faultSwitch.ID {
			continue
		}
		if first < 0 || e.Timestamp < first {
			first = e.Timestamp
		}
	}
	if first >= 0 {
		out.Detected = true
		out.Latency = first - injectAt
	}
	_ = interCard
	return out
}

// MonteCarloTable renders the replay outcomes grouped by class.
func MonteCarloTable(r *MonteCarloResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Incident Monte-Carlo (%d incidents from the Fig. 3 mix)", len(r.Outcomes)),
		"class", "count", "detected", "via", "median latency", "paper location time")
	type agg struct {
		count, detected, syslog int
		lat                     []float64
		paperMin                float64
	}
	byClass := map[incidents.DropClass]*agg{}
	for _, o := range r.Outcomes {
		a := byClass[o.Class]
		if a == nil {
			a = &agg{paperMin: o.PaperLocationMin}
			byClass[o.Class] = a
		}
		a.count++
		if o.Detected {
			a.detected++
		}
		if o.ViaSyslog {
			a.syslog++
		} else if o.Detected {
			a.lat = append(a.lat, float64(o.Latency))
		}
	}
	for _, c := range incidents.Classes {
		a := byClass[c]
		if a == nil {
			continue
		}
		via := "events"
		if a.syslog > 0 {
			via = "syslog"
		}
		t.AddRow(c.String(),
			fmt.Sprintf("%d", a.count),
			fmt.Sprintf("%d", a.detected),
			via,
			sim.Time(metrics.Percentile(a.lat, 50)).String(),
			fmt.Sprintf("%.0f min", a.paperMin),
		)
	}
	return t
}
