// Command benchdiff compares freshly generated BENCH_*.json artifacts
// against the checked-in baseline (bench/baseline/) and exits non-zero on
// a hot-path regression. CI runs it after `make bench-json`; the bench
// matrix runs one suite per job via -suite.
//
// Policy:
//   - allocs/op is machine-independent: any increase over baseline fails,
//     and metrics under hotpath/ must be exactly zero — the simulated
//     pipeline's per-event paths are pinned alloc-free, so even a
//     baseline that drifted up would not excuse a non-zero value.
//   - hot-path events/sec may drift with the runner; only a drop beyond
//     -speed-tolerance (default 25%) fails. Artifacts are the best of
//     -bench-count rounds (see benchjson.BestOf); failure messages print
//     the per-run spread so a flaky runner is distinguishable from a real
//     regression.
//   - the parallel report must attest digest identity twice — across the
//     point fan-out AND for the sharded engine against its sequential
//     reference (parallelism never changes results) — and, on machines
//     with enough cores (>=4 workers on >=4 CPUs), a speedup of at least
//     -min-speedup for both.
//
// Usage:
//
//	benchdiff [-baseline bench/baseline] [-current .]
//	          [-suite all|hotpath|parallel]
//	          [-speed-tolerance 0.25] [-min-speedup 1.5]
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"netseer/internal/benchjson"
)

// options parameterizes one comparison run (mirrors the flags).
type options struct {
	baseline   string  // directory with baseline BENCH_*.json
	current    string  // directory with freshly generated BENCH_*.json
	suite      string  // which suite(s) to gate: all, hotpath, parallel
	speedTol   float64 // max fractional events/sec drop vs baseline
	minSpeedup float64 // min parallel speedup (>=4 workers on >=4 CPUs)
}

// spread renders a metric's best-of-N annotation (benchjson.BestOf) for
// failure messages: how many rounds ran and how far apart they landed in
// the metric's primary dimension. Empty for single-round artifacts.
func spread(m benchjson.Metric) string {
	runs := m.Extra["runs"]
	if runs < 2 {
		return ""
	}
	return fmt.Sprintf(" [best of %.0f runs; per-run spread %.4g..%.4g]",
		runs, m.Extra["spread_min"], m.Extra["spread_max"])
}

// compare applies the gating policy. failures are regressions (any means
// the build must fail), info are human-oriented progress lines, err is a
// fatal setup problem (missing or unreadable artifact).
func compare(o options) (failures, info []string, err error) {
	fail := func(format string, args ...any) {
		failures = append(failures, fmt.Sprintf(format, args...))
	}
	want := func(suite string) bool { return o.suite == "all" || o.suite == suite }

	if want("hotpath") {
		base, err := benchjson.ReadFile(filepath.Join(o.baseline, "BENCH_hotpath.json"))
		if err != nil {
			return nil, nil, err
		}
		cur, err := benchjson.ReadFile(filepath.Join(o.current, "BENCH_hotpath.json"))
		if err != nil {
			return nil, nil, err
		}
		// The zero-alloc pin covers every current hotpath/ metric, including
		// ones the baseline predates.
		for _, cm := range cur.Metrics {
			if strings.HasPrefix(cm.Name, "hotpath/") && cm.AllocsPerOp != 0 {
				fail("%s: allocs/op = %v; hotpath/ metrics must be exactly 0%s",
					cm.Name, cm.AllocsPerOp, spread(cm))
			}
		}
		for _, bm := range base.Metrics {
			cm, ok := cur.Metric(bm.Name)
			if !ok {
				fail("%s: present in baseline but missing from current run", bm.Name)
				continue
			}
			if cm.AllocsPerOp > bm.AllocsPerOp {
				fail("%s: allocs/op grew %v -> %v (any increase fails)", bm.Name, bm.AllocsPerOp, cm.AllocsPerOp)
			}
			if bm.EventsPerSec > 0 && cm.EventsPerSec < bm.EventsPerSec*(1-o.speedTol) {
				fail("%s: events/sec dropped %.3g -> %.3g (tolerance %.0f%%)%s",
					bm.Name, bm.EventsPerSec, cm.EventsPerSec, o.speedTol*100, spread(cm))
			}
		}
		if len(failures) == 0 {
			info = append(info, fmt.Sprintf("hotpath: %d baseline metrics within budget (allocs/op: no increase, hotpath/ pinned 0; events/sec tolerance %.0f%%)",
				len(base.Metrics), o.speedTol*100))
		}
	}

	if want("parallel") {
		par, err := benchjson.ReadFile(filepath.Join(o.current, "BENCH_parallel.json"))
		if err != nil {
			return nil, nil, err
		}
		gateSpeedup := func(name, what string) {
			m, ok := par.Metric(name)
			if !ok {
				fail("BENCH_parallel.json: missing %s metric", name)
				return
			}
			if m.Extra["digests_match"] != 1 {
				fail("%s is not bit-identical to sequential (digests_match=%v)", what, m.Extra["digests_match"])
			}
			workers := m.Extra["workers"]
			if workers >= 4 && par.NumCPU >= 4 && m.Extra["speedup"] < o.minSpeedup {
				fail("%s speedup %.2fx at %.0f workers on %d CPUs; need >= %.2fx%s",
					what, m.Extra["speedup"], workers, par.NumCPU, o.minSpeedup, spread(m))
			} else {
				info = append(info, fmt.Sprintf("%s: %.2fx speedup at %.0f workers on %d CPUs (digests match)",
					what, m.Extra["speedup"], workers, par.NumCPU))
			}
		}
		gateSpeedup("parallel/speedup", "point fan-out")
		gateSpeedup("parallel/sharded_speedup", "sharded engine")
	}

	return failures, info, nil
}

func main() {
	var o options
	flag.StringVar(&o.baseline, "baseline", "bench/baseline", "directory with baseline BENCH_*.json")
	flag.StringVar(&o.current, "current", ".", "directory with freshly generated BENCH_*.json")
	flag.StringVar(&o.suite, "suite", "all", "which suite to gate (all, hotpath, parallel)")
	flag.Float64Var(&o.speedTol, "speed-tolerance", 0.25, "max fractional events/sec drop vs baseline")
	flag.Float64Var(&o.minSpeedup, "min-speedup", 1.5, "min parallel speedup (enforced only with >=4 workers on >=4 CPUs)")
	flag.Parse()

	switch o.suite {
	case "all", "hotpath", "parallel":
	default:
		fmt.Fprintf(os.Stderr, "benchdiff: unknown -suite %q (want all, hotpath or parallel)\n", o.suite)
		os.Exit(2)
	}

	failures, info, err := compare(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(1)
	}
	for _, line := range info {
		fmt.Println(line)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(os.Stderr, "REGRESSION:", f)
		}
		os.Exit(1)
	}
}
