// Command repro regenerates every table and figure of the paper's
// evaluation section (§5) at full scale and prints paper-style rows.
//
// Usage:
//
//	repro [-fig all|7|8a|8b|9|10|11|12|13|14a|14b|15] [-window 10ms] [-seed 1]
//	      [-parallel N] [-bench-json] [-bench-out DIR] [-oracle]
//	      [-bench-suite all|hotpath|parallel] [-bench-count 3]
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
	"path/filepath"
	"runtime"
	"time"

	"netseer/internal/benchjson"
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
	fig := flag.String("fig", "all", "figure to regenerate (all, 7, 8a, 8b, 9, 10, 11, 12, 13, 14a, 14b, 15, ext)")
	window := flag.Duration("window", 10*time.Millisecond, "simulated window per run")
	seed := flag.Uint64("seed", 1, "random seed")
	par := flag.Int("parallel", runtime.NumCPU(), "experiment worker-pool width (1 = fully sequential)")
	benchJSON := flag.Bool("bench-json", false, "emit BENCH_{hotpath,parallel}.json instead of figures")
	benchOut := flag.String("bench-out", ".", "directory for -bench-json artifacts")
	benchSuite := flag.String("bench-suite", "all", "which -bench-json suite to regenerate (all, hotpath, parallel)")
	benchCount := flag.Int("bench-count", 3, "rounds per -bench-json suite; the best round per metric is kept and the spread recorded")
	runOracle := flag.Bool("oracle", false, "run the correctness-oracle scenario matrix and print a scorecard")
	metricsAddr := flag.String("metrics", "", "observability listen address (/metrics, /healthz, /debug/pprof); empty disables")
	flag.Parse()

	if *metricsAddr != "" {
		// Process-level telemetry for long figure regenerations: runtime
		// gauges plus the canonical placeholder surface (individual runs
		// are short-lived testbeds, so no live pipeline series here).
		reg := obs.NewRegistry()
		obs.RegisterCatalog(reg)
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
	if *benchJSON {
		if err := emitBenchJSON(*benchOut, *seed, *par, *benchSuite, *benchCount); err != nil {
			fmt.Fprintln(os.Stderr, "bench-json:", err)
			os.Exit(1)
		}
		return
	}

	base := experiments.RunConfig{
		Window: sim.Time(window.Nanoseconds()),
		Seed:   *seed,
		Load:   0.70,
	}
	all := *fig == "all"
	dists := workload.All

	if all || *fig == "7" {
		overall, detail := resources.Estimate(resources.Defaults()).Tables()
		fmt.Println(overall)
		fmt.Println(detail)
	}
	if all || *fig == "8a" {
		fmt.Println(experiments.Fig8aTable(experiments.Fig8aCaseStudies(*seed)))
	}
	if all || *fig == "8b" {
		res := experiments.Fig8bSLA(experiments.SLAConfig{Seed: *seed, Windows: 30})
		fmt.Println(experiments.Fig8bTable(res))
	}
	if all || *fig == "9" {
		cfg := base
		cfg.Dist = workload.WEB
		fmt.Println(experiments.Fig9Table(experiments.Fig9EventCoverage(cfg)))
	}
	if all || *fig == "10" {
		results := experiments.Fig10CongestionCoverage(base, dists)
		fmt.Println(experiments.CoverageTable("Fig 10: congestion event coverage", experiments.ClassCongestion, results))
	}
	if all || *fig == "11" {
		results := experiments.Fig11BandwidthOverhead(base, dists)
		fmt.Println(experiments.Fig11Table(results))
		for _, r := range results {
			fmt.Printf("  %s: NetSeer event rate %.2f Meps (paper bound: ~4 Meps max for 6.4 Tb/s)\n",
				r.Workload, r.NetSeerEps/1e6)
		}
		fmt.Println()
	}
	if all || *fig == "12" {
		sizes := []int{1, 5, 10, 20, 30, 40, 50, 60, 70}
		fmt.Println(experiments.Fig12Table(experiments.Fig12Batching(sizes)))
	}
	if all || *fig == "13" {
		results := experiments.Fig13AllWorkloads(base, dists)
		a, b := experiments.Fig13Tables(results)
		fmt.Println(a)
		fmt.Println(b)
	}
	if all || *fig == "14a" {
		points := experiments.Fig14aPCIe([]int{1, 5, 10, 20, 30, 50, 70}, []int{1, 2}, 200*time.Millisecond)
		fmt.Println(experiments.Fig14aTable(points))
	}
	if all || *fig == "14b" {
		flows := []int{1 << 10, 1 << 13, 1 << 16, 1 << 18, 1 << 20}
		pre := experiments.Fig14bCPU(flows, 2, fpelim.PreHashed, 300*time.Millisecond)
		cpu := experiments.Fig14bCPU(flows, 2, fpelim.HashOnCPU, 300*time.Millisecond)
		fmt.Println(experiments.Fig14bTable(append(pre, cpu...)))
	}
	if all || *fig == "15" {
		a := experiments.Fig15aRingSizing([]int{64, 128, 256, 512, 1024, 1500})
		b := experiments.Fig15bSRAM([]int{100, 250, 500, 750, 1000}, []int{64, 256, 1024}, 64)
		ta, tb := experiments.Fig15Tables(a, b)
		fmt.Println(ta)
		fmt.Println(tb)
	}
	if all || *fig == "ext" {
		fmt.Println("== Extensions & ablations ==")
		w10, w60, w720, loc := incidents.RecoveryCDF(100000, *seed)
		fmt.Printf("Fig 1(a) model (production recovery w/o NetSeer): %.0f%% ≤10min, %.0f%% ≤1h, %.0f%% ≤12h; cause location = %.0f%% of time\n",
			w10*100, w60*100, w720*100, loc*100)
		pc := experiments.ExtPauseCoverage(*seed)
		fmt.Printf("pause coverage (lossless incast): %.1f%% of %d pause flow events (PFC fired: %v)\n",
			pc.Coverage*100, pc.TruthPauses, pc.PFCFramesSeen)
		ic := experiments.ExtInterCardDetection(*seed)
		fmt.Printf("inter-card detection: recovered %d/%d backplane drops, %d misattributed\n",
			ic.Recovered, ic.Injected, ic.WrongFlow)
		pd := experiments.ExtPartialDeployment(*seed)
		fmt.Printf("partial deployment (edge-only %d/%d switches): coverage %.1f%% vs full %.1f%%\n",
			pd.DeployedSwitches, pd.TotalSwitches, pd.PartialCoverage*100, pd.FullCoverage*100)
		da := experiments.AblationDedup(*seed, 200000)
		fmt.Printf("dedup ablation (200k event packets, %d distinct): group-cache missed %d, bloom missed %d; reports %d vs %d\n",
			da.DistinctEvents, da.GroupCacheMissed, da.BloomMissed, da.GroupCacheReports, da.BloomReports)
		ba := experiments.AblationBatching(10000)
		fmt.Printf("batching ablation: %d events → %d B batched vs %d B per-packet (%.1f%% saved)\n",
			ba.Events, ba.BatchedBytes, ba.PerPacketBytes, ba.Saving*100)
		ta, tc := experiments.SweepTables(
			experiments.SweepTableSize([]int{64, 256, 1024, 4096, 16384}, 2000, 200000, *seed),
			experiments.SweepC([]uint16{16, 64, 128, 512, 1024}, 2000, 64, *seed))
		fmt.Println(ta)
		fmt.Println(tc)
		hf := experiments.ExtHardwareFailure(*seed)
		fmt.Printf("hardware-failure boundary: %d ASIC-failure drops, NetSeer saw %d (blind, as documented), syslog alerts %d\n",
			hf.GroundTruthDrops, hf.NetSeerEvents, hf.SyslogAlerts)
		mc := experiments.ExtIncidentMonteCarlo(30, *seed)
		fmt.Println(experiments.MonteCarloTable(mc))
		sa := experiments.AblationInterSwitch(*seed)
		fmt.Printf("inter-switch ablation: coverage %.1f%% with seq/ring vs %.1f%% without\n",
			sa.WithSeq*100, sa.WithoutSeq*100)
		fmt.Println()
	}
}

// emitBenchJSON runs the selected bench suites (hot-path microbenchmarks,
// the parallel-engine harness), each for count
// rounds with the best round per metric kept (benchjson.BestOf), writing
// BENCH_<suite>.json into dir. The CI bench matrix regenerates one suite
// per job and scripts/benchdiff gates merges on the artifacts (see
// bench/baseline/).
func emitBenchJSON(dir string, seed uint64, workers int, suite string, count int) error {
	switch suite {
	case "all", "hotpath", "parallel":
	default:
		return fmt.Errorf("unknown -bench-suite %q (want all, hotpath or parallel)", suite)
	}
	if count <= 0 {
		count = 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	runSuite := func(name, desc string, gen func() (*benchjson.Report, error)) (*benchjson.Report, error) {
		if suite != "all" && suite != name {
			return nil, nil
		}
		var rounds []*benchjson.Report
		for i := 0; i < count; i++ {
			fmt.Fprintf(os.Stderr, "bench-json: %s round %d/%d (%s)...\n", name, i+1, count, desc)
			r, err := gen()
			if err != nil {
				return nil, err
			}
			rounds = append(rounds, r)
		}
		best := benchjson.BestOf(rounds...)
		path := filepath.Join(dir, "BENCH_"+name+".json")
		if err := best.WriteFile(path); err != nil {
			return nil, err
		}
		fmt.Fprintln(os.Stderr, "bench-json: wrote", path)
		return best, nil
	}

	if _, err := runSuite("hotpath", "per-packet microbenchmarks", func() (*benchjson.Report, error) {
		return benchjson.Hotpath(), nil
	}); err != nil {
		return err
	}

	par, err := runSuite("parallel", fmt.Sprintf("1 vs %d workers + sharded fat-tree", workers),
		func() (*benchjson.Report, error) { return benchjson.Parallel(workers, seed) })
	if err != nil {
		return err
	}
	if par != nil {
		if m, ok := par.Metric("parallel/speedup"); ok {
			fmt.Fprintf(os.Stderr, "bench-json: point-fanout speedup %.2fx at %d workers over %.0f points\n",
				m.Extra["speedup"], workers, m.Extra["points"])
		}
		if m, ok := par.Metric("parallel/sharded_speedup"); ok {
			fmt.Fprintf(os.Stderr, "bench-json: sharded-engine speedup %.2fx (%.0f shards, %.0f workers, digests match)\n",
				m.Extra["speedup"], m.Extra["shards"], m.Extra["workers"])
		}
	}
	return nil
}
