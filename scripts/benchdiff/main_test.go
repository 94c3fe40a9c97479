package main

import (
	"path/filepath"
	"strings"
	"testing"

	"netseer/internal/benchjson"
)

// writeReport writes a BENCH_*.json fixture into dir.
func writeReport(t *testing.T, dir, file string, r *benchjson.Report) {
	t.Helper()
	if err := r.WriteFile(filepath.Join(dir, file)); err != nil {
		t.Fatal(err)
	}
}

// hotpath builds a single-metric hot-path report.
func hotpath(allocs, eps float64) *benchjson.Report {
	r := benchjson.NewReport("hotpath")
	r.Add(benchjson.Metric{Name: "core/pipeline", AllocsPerOp: allocs, EventsPerSec: eps})
	return r
}

// parallelReport builds a parallel report carrying both speedup
// attestations (point fan-out and sharded engine) with the same values.
func parallelReport(numCPU int, workers, speedup, digestsMatch float64) *benchjson.Report {
	r := benchjson.NewReport("parallel")
	r.NumCPU = numCPU
	r.Add(benchjson.Metric{Name: "parallel/speedup", Extra: map[string]float64{
		"workers":       workers,
		"speedup":       speedup,
		"digests_match": digestsMatch,
	}})
	r.Add(benchjson.Metric{Name: "parallel/sharded_speedup", Extra: map[string]float64{
		"workers":       workers,
		"shards":        21,
		"speedup":       speedup,
		"digests_match": digestsMatch,
	}})
	return r
}

// shardedBroken returns a parallel report whose point fan-out passes but
// whose sharded attestation carries the given speedup/digest values.
func shardedBroken(numCPU int, workers, speedup, digestsMatch float64) *benchjson.Report {
	r := parallelReport(numCPU, workers, 2.0, 1)
	for i := range r.Metrics {
		if r.Metrics[i].Name == "parallel/sharded_speedup" {
			r.Metrics[i].Extra["speedup"] = speedup
			r.Metrics[i].Extra["digests_match"] = digestsMatch
		}
	}
	return r
}

// fixture lays out a baseline dir and a current dir, returning both.
func fixture(t *testing.T, base, cur, par *benchjson.Report) options {
	t.Helper()
	baseDir, curDir := t.TempDir(), t.TempDir()
	if base != nil {
		writeReport(t, baseDir, "BENCH_hotpath.json", base)
	}
	if cur != nil {
		writeReport(t, curDir, "BENCH_hotpath.json", cur)
	}
	if par != nil {
		writeReport(t, curDir, "BENCH_parallel.json", par)
	}
	return options{baseline: baseDir, current: curDir, suite: "all", speedTol: 0.25, minSpeedup: 1.5}
}

func mustCompare(t *testing.T, o options) []string {
	t.Helper()
	failures, _, err := compare(o)
	if err != nil {
		t.Fatalf("compare: %v", err)
	}
	return failures
}

func wantFailure(t *testing.T, failures []string, substr string) {
	t.Helper()
	for _, f := range failures {
		if strings.Contains(f, substr) {
			return
		}
	}
	t.Errorf("no failure mentions %q; got %q", substr, failures)
}

func TestComparePassesWithinBudget(t *testing.T) {
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 0.9e8), parallelReport(8, 4, 2.0, 1))
	failures, info, err := compare(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(failures) != 0 {
		t.Errorf("unexpected failures: %q", failures)
	}
	joined := strings.Join(info, "\n")
	if !strings.Contains(joined, "within budget") || !strings.Contains(joined, "2.00x speedup") {
		t.Errorf("info missing summary lines: %q", info)
	}
}

func TestCompareFailsOnAllocsIncrease(t *testing.T) {
	o := fixture(t, hotpath(3, 1e8), hotpath(4, 1e8), parallelReport(8, 4, 2.0, 1))
	wantFailure(t, mustCompare(t, o), "allocs/op grew")
}

// hotpathNamed builds a report whose single metric carries the hotpath/
// prefix the zero-alloc hard rule is scoped to.
func hotpathNamed(allocs, eps float64) *benchjson.Report {
	r := benchjson.NewReport("hotpath")
	r.Add(benchjson.Metric{Name: "hotpath/groupcache_ingest", AllocsPerOp: allocs, EventsPerSec: eps})
	return r
}

func TestCompareRequiresZeroAllocsOnHotpath(t *testing.T) {
	// Even a baseline that drifted to 1 alloc/op does not excuse the
	// current run: hotpath/ metrics must be exactly zero.
	o := fixture(t, hotpathNamed(1, 1e8), hotpathNamed(1, 1e8), parallelReport(8, 4, 2.0, 1))
	wantFailure(t, mustCompare(t, o), "must be exactly 0")

	// Zero allocs passes.
	o = fixture(t, hotpathNamed(0, 1e8), hotpathNamed(0, 1e8), parallelReport(8, 4, 2.0, 1))
	if failures := mustCompare(t, o); len(failures) != 0 {
		t.Errorf("zero-alloc hotpath flagged: %q", failures)
	}

	// The hard rule is scoped: non-hotpath metrics may allocate (the
	// no-increase rule still applies to them).
	o = fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), parallelReport(8, 4, 2.0, 1))
	if failures := mustCompare(t, o); len(failures) != 0 {
		t.Errorf("non-hotpath metric hit the zero-alloc rule: %q", failures)
	}
}

func TestCompareFailsOnThroughputDropBeyondTolerance(t *testing.T) {
	// 40% drop against a 25% tolerance.
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 0.6e8), parallelReport(8, 4, 2.0, 1))
	wantFailure(t, mustCompare(t, o), "events/sec dropped")
}

func TestCompareToleratesThroughputDropWithinTolerance(t *testing.T) {
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 0.8e8), parallelReport(8, 4, 2.0, 1))
	if failures := mustCompare(t, o); len(failures) != 0 {
		t.Errorf("20%% drop within 25%% tolerance should pass; got %q", failures)
	}
}

func TestCompareFailsOnMetricMissingFromCurrent(t *testing.T) {
	cur := benchjson.NewReport("hotpath") // empty: baseline metric vanished
	o := fixture(t, hotpath(3, 1e8), cur, parallelReport(8, 4, 2.0, 1))
	wantFailure(t, mustCompare(t, o), "missing from current run")
}

func TestCompareFailsOnDigestMismatch(t *testing.T) {
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), parallelReport(8, 4, 2.0, 0))
	wantFailure(t, mustCompare(t, o), "not bit-identical")
}

func TestCompareFailsOnMissingSpeedupMetric(t *testing.T) {
	par := benchjson.NewReport("parallel")
	par.NumCPU = 8
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), par)
	wantFailure(t, mustCompare(t, o), "missing parallel/speedup")
}

func TestCompareEnforcesSpeedupOnlyWithEnoughCPUs(t *testing.T) {
	// 4 workers on 8 CPUs at 1.1x: below the 1.5x floor -> both gates fail.
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), parallelReport(8, 4, 1.1, 1))
	failures := mustCompare(t, o)
	wantFailure(t, failures, "point fan-out speedup")
	wantFailure(t, failures, "sharded engine speedup")

	// Same speedup on a 2-CPU machine: the gate must not fire.
	o = fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), parallelReport(2, 4, 1.1, 1))
	if failures := mustCompare(t, o); len(failures) != 0 {
		t.Errorf("speedup gate fired on a 2-CPU machine: %q", failures)
	}

	// And with fewer than 4 workers, regardless of CPUs.
	o = fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), parallelReport(8, 2, 1.1, 1))
	if failures := mustCompare(t, o); len(failures) != 0 {
		t.Errorf("speedup gate fired with 2 workers: %q", failures)
	}
}

func TestCompareReportsMissingBaseline(t *testing.T) {
	o := fixture(t, nil, hotpath(3, 1e8), parallelReport(8, 4, 2.0, 1))
	if _, _, err := compare(o); err == nil {
		t.Fatal("compare succeeded with no baseline artifact")
	}
}

func TestCompareReportsMissingCurrentArtifacts(t *testing.T) {
	// Current hot-path artifact absent.
	o := fixture(t, hotpath(3, 1e8), nil, parallelReport(8, 4, 2.0, 1))
	if _, _, err := compare(o); err == nil {
		t.Fatal("compare succeeded with no current hot-path artifact")
	}

	// Parallel artifact absent.
	o = fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), nil)
	if _, _, err := compare(o); err == nil {
		t.Fatal("compare succeeded with no parallel artifact")
	}
}

func TestCompareFailsOnShardedDigestMismatch(t *testing.T) {
	// Point fan-out attests, sharded engine does not: the sharded gate
	// must fail independently.
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), shardedBroken(8, 4, 2.0, 0))
	wantFailure(t, mustCompare(t, o), "sharded engine is not bit-identical")
}

func TestCompareFailsOnMissingShardedSpeedup(t *testing.T) {
	par := benchjson.NewReport("parallel")
	par.NumCPU = 8
	par.Add(benchjson.Metric{Name: "parallel/speedup", Extra: map[string]float64{
		"workers": 4, "speedup": 2.0, "digests_match": 1,
	}})
	o := fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), par)
	wantFailure(t, mustCompare(t, o), "missing parallel/sharded_speedup")
}

func TestCompareShardedSpeedupGateRespectsCPUFloor(t *testing.T) {
	// 1.1x sharded speedup on a 2-CPU box or with 2 workers: no failure.
	for _, o := range []options{
		fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), shardedBroken(2, 4, 1.1, 1)),
		fixture(t, hotpath(3, 1e8), hotpath(3, 1e8), shardedBroken(8, 2, 1.1, 1)),
	} {
		if failures := mustCompare(t, o); len(failures) != 0 {
			t.Errorf("sharded speedup gate fired below the 4-worker/4-CPU floor: %q", failures)
		}
	}
}

func TestCompareSuiteFiltersArtifacts(t *testing.T) {
	// -suite hotpath must not read the parallel artifact at all: the
	// fixture's current dir has none, yet hotpath-only passes.
	baseDir, curDir := t.TempDir(), t.TempDir()
	writeReport(t, baseDir, "BENCH_hotpath.json", hotpath(3, 1e8))
	writeReport(t, curDir, "BENCH_hotpath.json", hotpath(3, 1e8))
	o := options{baseline: baseDir, current: curDir, suite: "hotpath", speedTol: 0.25, minSpeedup: 1.5}
	failures, _, err := compare(o)
	if err != nil || len(failures) != 0 {
		t.Fatalf("suite=hotpath with only hotpath artifacts: err=%v failures=%q", err, failures)
	}

	// Conversely -suite parallel never opens the (absent) hotpath files.
	writeReport(t, curDir, "BENCH_parallel.json", parallelReport(8, 4, 2.0, 1))
	o = options{baseline: t.TempDir(), current: curDir, suite: "parallel", speedTol: 0.25, minSpeedup: 1.5}
	failures, _, err = compare(o)
	if err != nil || len(failures) != 0 {
		t.Fatalf("suite=parallel with no hotpath baseline: err=%v failures=%q", err, failures)
	}
}

func TestCompareFailurePrintsPerRunSpread(t *testing.T) {
	// A best-of-3 metric that regressed: the failure message must carry
	// the per-run spread so flake is distinguishable from regression.
	cur := benchjson.NewReport("hotpath")
	cur.Add(benchjson.Metric{Name: "core/pipeline", AllocsPerOp: 3, EventsPerSec: 0.5e8,
		Extra: map[string]float64{"runs": 3, "spread_min": 0.4e8, "spread_max": 0.55e8}})
	o := fixture(t, hotpath(3, 1e8), cur, parallelReport(8, 4, 2.0, 1))
	failures := mustCompare(t, o)
	wantFailure(t, failures, "events/sec dropped")
	wantFailure(t, failures, "best of 3 runs")
	wantFailure(t, failures, "per-run spread")
}
