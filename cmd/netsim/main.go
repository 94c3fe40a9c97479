// Command netsim runs a monitored fat-tree simulation and streams the
// produced flow events to a collector (a running netseerd, or stdout).
//
// Usage:
//
//	netsim [-dist WEB] [-load 0.7] [-window 10ms] [-seed 1]
//	       [-collector host:port] [-fault none|blackhole|corrupt|incast|parity]
//
// With -collector, events ship over TCP exactly as a switch CPU would
// send them; without it, a summary prints to stdout.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"netseer/internal/collector"
	"netseer/internal/dataplane"
	"netseer/internal/experiments"
	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/metrics"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pcap"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/sketch"
	"netseer/internal/workload"
)

func main() {
	distName := flag.String("dist", "WEB", "traffic distribution: DCTCP, VL2, CACHE, HADOOP, WEB")
	load := flag.Float64("load", 0.7, "client uplink load fraction")
	window := flag.Duration("window", 10*time.Millisecond, "simulated duration")
	seed := flag.Uint64("seed", 1, "random seed")
	collectorAddr := flag.String("collector", "", "netseerd ingest address, or a comma-separated failover list primary,backup,... (empty: in-process summary)")
	fault := flag.String("fault", "none", "fault to inject: none, blackhole, corrupt, incast, parity")
	sketchOn := flag.Bool("sketch", false, "enable the sketch detection stage (heavy hitters, top-K churn, aggregate spikes)")
	metricsAddr := flag.String("metrics", "", "observability listen address (/metrics, /healthz, /debug/pprof); empty disables")
	pcapPath := flag.String("pcap", "", "write traffic at the first core switch to this pcap file")
	traceOut := flag.String("trace-out", "", "record flow arrivals to this trace file")
	traceIn := flag.String("trace-in", "", "replay flow arrivals from this trace file instead of the generator")
	flag.Parse()

	dist, ok := workload.ByName(*distName)
	if !ok {
		log.Fatalf("unknown distribution %q", *distName)
	}
	cfg := experiments.RunConfig{
		Dist: dist, Load: *load,
		Window: sim.Time(window.Nanoseconds()),
		Seed:   *seed, NetSeer: true,
	}
	if *sketchOn {
		// Library defaults (2048×4 count-min, top-32, 64-packet onset,
		// 64 KiB/250 µs spike bins) sized for the scaled-down testbed:
		// threshold low enough that the WEB elephants cross it inside a
		// default window, spike bins that a loaded uplink actually fills.
		cfg.NSCfg.Sketch = true
		cfg.NSCfg.SketchCfg = sketch.Config{HHThresholdPkts: 32, SpikeBytes: 32 << 10}
	}
	tb := experiments.NewTestbed(cfg)

	// Self-telemetry: every declared family, with live switch-side
	// series. The hot pipeline stages keep single-owner plain counters, so
	// publish points are pre-scheduled at fixed fractions of the window
	// (never as self-rescheduling simulator events, which would keep the
	// run alive forever) and once more after the run drains.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	trace.RegisterMetrics(reg, trace.Default)
	publish := tb.RegisterObs(reg)
	const publishPoints = 16
	for i := 1; i <= publishPoints; i++ {
		tb.Sim.Schedule(cfg.Window*sim.Time(i)/publishPoints, publish)
	}
	if *metricsAddr != "" {
		osrv, err := obs.ServeHTTP(reg, *metricsAddr,
			obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)})
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer osrv.Close()
		fmt.Printf("metrics on http://%s/metrics, traces on /traces\n", osrv.Addr())
	}

	// Optional TCP export: rather than interpose a client sink on every
	// switch, the in-process store ships at the end (export).
	var client *collector.Client
	if *collectorAddr != "" {
		addrs := strings.Split(*collectorAddr, ",")
		client = collector.NewClientConfig(addrs[0], collector.ClientConfig{MaxQueue: exportWindow, Endpoints: addrs[1:]})
		defer client.Close()
		client.RegisterMetrics(reg)
	}

	if *pcapPath != "" {
		f, err := os.Create(*pcapPath)
		if err != nil {
			log.Fatalf("pcap: %v", err)
		}
		w, err := pcap.NewWriter(f)
		if err != nil {
			log.Fatalf("pcap: %v", err)
		}
		defer func() {
			w.Close()
			fmt.Printf("wrote %d frames to %s\n", w.Frames(), *pcapPath)
		}()
		tap := &pcap.Tap{W: w, Clock: tb.Sim.Now}
		coreNode, _ := tb.Fab.Topo.NodeByName("core0")
		tb.Fab.Switches[coreNode.ID].AddMonitor(&pcapMonitor{tap: tap})
	}

	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		tw, err := workload.NewTraceWriter(f)
		if err != nil {
			log.Fatalf("trace-out: %v", err)
		}
		defer func() {
			tw.Flush()
			f.Close()
			fmt.Printf("recorded %d flow arrivals to %s\n", tw.Records(), *traceOut)
		}()
		tb.Gen.Record(tw)
	}
	if *traceIn != "" {
		f, err := os.Open(*traceIn)
		if err != nil {
			log.Fatalf("trace-in: %v", err)
		}
		records, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			log.Fatalf("trace-in: %v", err)
		}
		scheduled, skipped := workload.Replay(tb.Sim, records, tb.Hosts, 1000, 0)
		fmt.Printf("replaying %d flows from %s (%d skipped)\n", scheduled, *traceIn, skipped)
		tb.Gen.Stop() // the trace replaces generated arrivals
	}

	injectFault(tb, *fault)
	start := time.Now()
	tb.Run()
	elapsed := time.Since(start)
	publish() // final snapshot after the run drained

	st := tb.NetSeerStats()
	fmt.Printf("simulated %v of %s at %.0f%% load in %v wall time\n",
		cfg.Window, dist.Name, *load*100, elapsed.Round(time.Millisecond))
	fmt.Printf("raw packets observed:   %s\n", metrics.FormatCount(float64(st.RawPackets)))
	fmt.Printf("event packets selected: %s (%.2f%%)\n",
		metrics.FormatCount(float64(st.EventPackets)),
		metrics.Ratio(float64(st.EventPackets), float64(st.RawPackets))*100)
	fmt.Printf("flow events exported:   %s (%s)\n",
		metrics.FormatCount(float64(st.ExportedEvents)),
		metrics.FormatBps(float64(st.ExportedBytes*8)/cfg.Window.Seconds()))
	counts := tb.Store.CountByType()
	for _, typ := range fevent.Types {
		fmt.Printf("  %-12s %d\n", typ.String()+":", counts[typ])
	}

	if client != nil {
		events, err := export(client, tb.Store)
		if err != nil {
			log.Fatalf("export: %v", err)
		}
		fmt.Printf("exported %d events to %s\n", events, *collectorAddr)
		// RESULTS: report the reliable channel's health alongside the
		// event counts — reconnects, retransmits, backlog and ack
		// latency tell the operator whether delivery itself struggled.
		fmt.Print(client.Stats().Format())
	}
}

// exportWindow is how many batches export delivers between flushes, and
// the client's queue bound: a store ships one batch a stored run, often a
// single event, so a run of any length must not queue whole.
const exportWindow = 1 << 12

// export ships everything the switches produced to client, one batch a
// stored run (Store.AppendImage), so every event travels under its own
// switch and stamp, and waits until the collector acked them all. The
// re-framing severs the in-sim batch identity, so the export is the
// origin of these batches' wire journey: each gets a fresh deterministic
// context keyed by its ordinal, and the sampled ones leave cross-process
// traces on the collector (fetquery -trace / the daemon's /traces). It
// returns how many events it shipped.
func export(client *collector.Client, store *collector.Store) (int, error) {
	img, events := store.AppendImage(nil, &collector.Filter{}, nil), 0
	for i := uint64(0); len(img) > 0; i++ {
		b := &fevent.Batch{}
		var err error
		if img, err = fevent.DecodeBatch(img, b); err != nil {
			return events, err
		}
		b.Trace = trace.NewContext(b.SwitchID, i)
		client.Deliver(b)
		events += len(b.Events)
		if (i+1)%exportWindow != 0 && len(img) > 0 {
			continue
		}
		// Flush fails fast while the collector is unreachable so callers
		// can tell; here we ride through a transient outage or restart —
		// the client retransmits unacked batches and the store
		// deduplicates — and only give up after a deadline.
		for deadline := time.Now().Add(15 * time.Second); ; time.Sleep(500 * time.Millisecond) {
			if err := client.Flush(); err == nil {
				break
			} else if time.Now().After(deadline) {
				return events, err
			}
		}
	}
	return events, nil
}

func injectFault(tb *experiments.Testbed, fault string) {
	w := tb.Cfg.Window
	switch fault {
	case "none":
	case "blackhole":
		victim := tb.Hosts[len(tb.Hosts)-1]
		tor := tb.Fab.HostPorts[victim.Node.ID][0].Switch
		tb.Sim.Schedule(w/4, func() { tor.SetRouteOverride(victim.Node.IP, []int{}) })
	case "corrupt":
		l := tb.Fab.LinkBetween("agg0-0", "core0")
		tb.Sim.Schedule(w/4, func() {
			l.SetFault(true, link.Fault{CorruptProb: 0.02})
			l.SetFault(false, link.Fault{CorruptProb: 0.02})
		})
	case "incast":
		tb.Sim.Schedule(w/4, func() {
			workload.Incast(tb.Sim, tb.Hosts[16:28], tb.Hosts[0], 1<<20, 1000, 0)
		})
	case "parity":
		victim := tb.Hosts[len(tb.Hosts)-1]
		var agg *dataplane.Switch
		tb.Fab.EachSwitch(func(sw *dataplane.Switch) {
			if agg == nil && sw.Name == "agg1-0" {
				agg = sw
			}
		})
		tb.Sim.Schedule(w/4, func() { agg.InjectParityError(victim.Node.IP) })
	default:
		log.Fatalf("unknown fault %q", fault)
	}
}

// pcapMonitor adapts a pcap tap to the dataplane monitor interface,
// capturing every packet entering the tapped switch.
type pcapMonitor struct {
	dataplane.NopMonitor
	tap *pcap.Tap
}

// OnIngress implements dataplane.Monitor.
func (m *pcapMonitor) OnIngress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	m.tap.Capture(p)
}
