// Command repro regenerates every table and figure of the paper's
// evaluation section (§5) at full scale and prints paper-style rows.
//
// Usage:
//
//	repro [-fig all|7|8a|8b|9|10|11|12|13|14a|14b|15|ext] [-window 10ms] [-seed 1]
//	      [-parallel N] [-oracle] [-metrics ADDR]
//
// -oracle skips the figures and instead runs the correctness oracle
// (internal/oracle): the seeded scenario matrix with all five invariant
// checkers, printed as a scorecard. Exits non-zero if any claim is
// violated.
//
// Absolute numbers come from a software simulation, not the authors'
// Tofino testbed; the shapes — who wins, by what order of magnitude,
// where capacity saturates — are the reproduction target (see
// EXPERIMENTS.md).
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"netseer/internal/experiments"
	"netseer/internal/fpelim"
	"netseer/internal/incidents"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/oracle"
	"netseer/internal/resources"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate ("+figureNames()+")")
	window := flag.Duration("window", 10*time.Millisecond, "simulated window per run")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("parallel", runtime.NumCPU(), "experiment worker-pool width (1 = fully sequential)")
	runOracle := flag.Bool("oracle", false, "run the correctness-oracle scenario matrix and print a scorecard")
	metricsAddr := flag.String("metrics", "", "observability listen address (/metrics, /healthz, /debug/pprof); empty disables")
	flag.Parse()
	selected := selectFigures(*fig)
	if selected == nil {
		fmt.Fprintf(os.Stderr, "repro: unknown -fig %q (valid: %s)\n", *fig, figureNames())
		os.Exit(2)
	}

	if *metricsAddr != "" {
		// Process-level telemetry for long figure regenerations: runtime
		// gauges only (individual runs are short-lived testbeds, so the
		// pipeline families render as zero samples).
		reg := obs.NewRegistry()
		obs.RegisterRuntime(reg)
		trace.RegisterMetrics(reg, trace.Default)
		osrv, err := obs.ServeHTTP(reg, *metricsAddr,
			obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)})
		if err != nil {
			fmt.Fprintln(os.Stderr, "metrics listener:", err)
			os.Exit(1)
		}
		defer osrv.Close()
		fmt.Printf("metrics on http://%s/metrics, traces on /traces\n", osrv.Addr())
	}

	experiments.SetParallelism(*par)
	if *runOracle {
		if failed := oracle.Scorecard(os.Stdout, *seed); failed > 0 {
			os.Exit(1)
		}
		return
	}

	base := experiments.RunConfig{
		Window: sim.Time(window.Nanoseconds()),
		Seed:   *seed,
		Load:   0.70,
	}
	for _, f := range selected {
		f.print(base)
	}
}

// figures is the evaluation in print order; the names are what -fig accepts.
var figures = []figure{
	{"7", func(base experiments.RunConfig) {
		overall, detail := resources.Estimate(base.NSCfg).Tables()
		fmt.Println(overall)
		fmt.Println(detail)
	}},
	{"8a", func(base experiments.RunConfig) {
		fmt.Println(experiments.Fig8aTable(experiments.Fig8aCaseStudies(base.Seed)))
	}},
	{"8b", func(base experiments.RunConfig) {
		res := experiments.Fig8bSLA(experiments.SLAConfig{Seed: base.Seed, Windows: 30})
		fmt.Println(experiments.Fig8bTable(res))
	}},
	{"9", func(base experiments.RunConfig) {
		cfg := base
		cfg.Dist = workload.WEB
		fmt.Println(experiments.Fig9Table(experiments.Fig9EventCoverage(cfg)))
	}},
	{"10", func(base experiments.RunConfig) {
		results := experiments.Fig10CongestionCoverage(base, workload.All)
		fmt.Println(experiments.CoverageTable("Fig 10: congestion event coverage", experiments.ClassCongestion, results))
	}},
	{"11", func(base experiments.RunConfig) {
		results := experiments.Fig11BandwidthOverhead(base, workload.All)
		fmt.Println(experiments.Fig11Table(results))
		for _, r := range results {
			fmt.Printf("  %s: NetSeer event rate %.2f Meps (paper bound: ~4 Meps max for 6.4 Tb/s)\n",
				r.Workload, r.NetSeerEps/1e6)
		}
		fmt.Println()
	}},
	{"12", func(experiments.RunConfig) {
		sizes := []int{1, 5, 10, 20, 30, 40, 50, 60, 70}
		fmt.Println(experiments.Fig12Table(experiments.Fig12Batching(sizes)))
	}},
	{"13", func(base experiments.RunConfig) {
		results := experiments.Fig13AllWorkloads(base, workload.All)
		a, b := experiments.Fig13Tables(results)
		fmt.Println(a)
		fmt.Println(b)
	}},
	{"14a", func(experiments.RunConfig) {
		points := experiments.Fig14aPCIe([]int{1, 5, 10, 20, 30, 50, 70}, []int{1, 2}, 200*time.Millisecond)
		fmt.Println(experiments.Fig14aTable(points))
	}},
	{"14b", func(experiments.RunConfig) {
		flows := []int{1 << 10, 1 << 13, 1 << 16, 1 << 18, 1 << 20}
		pre := experiments.Fig14bCPU(flows, 2, fpelim.PreHashed, 300*time.Millisecond)
		cpu := experiments.Fig14bCPU(flows, 2, fpelim.HashOnCPU, 300*time.Millisecond)
		fmt.Println(experiments.Fig14bTable(append(pre, cpu...)))
	}},
	{"15", func(experiments.RunConfig) {
		a := experiments.Fig15aRingSizing([]int{64, 128, 256, 512, 1024, 1500})
		b := experiments.Fig15bSRAM([]int{100, 250, 500, 750, 1000}, []int{64, 256, 1024}, 64)
		ta, tb := experiments.Fig15Tables(a, b)
		fmt.Println(ta)
		fmt.Println(tb)
	}},
	{"ext", func(base experiments.RunConfig) {
		fmt.Println("== Extensions & ablations ==")
		w10, w60, w720, loc := incidents.RecoveryCDF(100000, base.Seed)
		fmt.Printf("Fig 1(a) model (production recovery w/o NetSeer): %.0f%% ≤10min, %.0f%% ≤1h, %.0f%% ≤12h; cause location = %.0f%% of time\n",
			w10*100, w60*100, w720*100, loc*100)
		pc := experiments.ExtPauseCoverage(base.Seed)
		fmt.Printf("pause coverage (lossless incast): %.1f%% of %d pause flow events (PFC fired: %v)\n",
			pc.Coverage*100, pc.TruthPauses, pc.PFCFramesSeen)
		ic := experiments.ExtInterCardDetection(base.Seed)
		fmt.Printf("inter-card detection: recovered %d/%d backplane drops, %d misattributed\n",
			ic.Recovered, ic.Injected, ic.WrongFlow)
		pd := experiments.ExtPartialDeployment(base.Seed)
		fmt.Printf("partial deployment (edge-only %d/%d switches): coverage %.1f%% vs full %.1f%%\n",
			pd.DeployedSwitches, pd.TotalSwitches, pd.PartialCoverage*100, pd.FullCoverage*100)
		da := experiments.AblationDedup(base.Seed, 200000)
		fmt.Printf("dedup ablation (200k event packets, %d distinct): group-cache missed %d, bloom missed %d; reports %d vs %d\n",
			da.DistinctEvents, da.GroupCacheMissed, da.BloomMissed, da.GroupCacheReports, da.BloomReports)
		ba := experiments.AblationBatching(10000)
		fmt.Printf("batching ablation: %d events → %d B batched vs %d B per-packet (%.1f%% saved)\n",
			ba.Events, ba.BatchedBytes, ba.PerPacketBytes, ba.Saving*100)
		ta, tc := experiments.SweepTables(
			experiments.SweepTableSize([]int{64, 256, 1024, 4096, 16384}, 2000, 200000, base.Seed),
			experiments.SweepC([]uint16{16, 64, 128, 512, 1024}, 2000, 64, base.Seed))
		fmt.Println(ta)
		fmt.Println(tc)
		hf := experiments.ExtHardwareFailure(base.Seed)
		fmt.Printf("hardware-failure boundary: %d ASIC-failure drops, NetSeer saw %d (blind, as documented), syslog alerts %d\n",
			hf.GroundTruthDrops, hf.NetSeerEvents, hf.SyslogAlerts)
		mc := experiments.ExtIncidentMonteCarlo(30, base.Seed)
		fmt.Println(experiments.MonteCarloTable(mc))
		sa := experiments.AblationInterSwitch(base.Seed)
		fmt.Printf("inter-switch ablation: coverage %.1f%% with seq/ring vs %.1f%% without\n",
			sa.WithSeq*100, sa.WithoutSeq*100)
		fmt.Println()
	}},
}

// figure is one regenerable unit of the evaluation: -fig <name> prints it,
// -fig all prints every one in table order.
type figure struct {
	name  string
	print func(base experiments.RunConfig)
}

// selectFigures resolves a -fig value; nil means the name is unknown.
func selectFigures(name string) []figure {
	if name == "all" {
		return figures
	}
	for i := range figures {
		if figures[i].name == name {
			return figures[i : i+1]
		}
	}
	return nil
}

// figureNames lists every value -fig accepts.
func figureNames() string {
	names := "all"
	for _, f := range figures {
		names += ", " + f.name
	}
	return names
}
