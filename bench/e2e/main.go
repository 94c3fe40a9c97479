// Command e2e is the repo's benchmark: four fixed-work workloads from
// simulated packet to query answer, four end-to-end metrics on each, and
// a per-layer ledger from a separate traced run. See README.md in this
// directory; BENCHMARK.json at the repo root is its contract.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
)

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2e", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace string
	var compare bool
	fs.StringVar(&cfg.workload, "workload", "all", "testbed_web, ingest_wal, recover_wal, query_mixed, or all")
	fs.Uint64Var(&cfg.seed, "seed", 1, "input seed; every round of the run uses it")
	fs.IntVar(&cfg.seconds, "seconds", nominalSeconds, "nominal length of the timed phase; scales the fixed round counts")
	fs.StringVar(&trace, "trace", "0", "1 = traced run: print the per-layer ledger and write the span file")
	fs.BoolVar(&cfg.smoke, "smoke", false, "one tiny round per workload with every correctness check on")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "e2e", "out"), "directory for result and span files")
	fs.StringVar(&cfg.walDir, "waldir", "", "directory for WAL files, on a real filesystem (default <out>/wal)")
	fs.BoolVar(&cfg.allowTmpfs, "allow-tmpfs", false, "run even if -waldir is on tmpfs, where fsync costs nothing")
	fs.BoolVar(&compare, "compare", false, "compare two directories of result files against the bounds in ./BENCHMARK.json: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: e2e -compare A B")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), "BENCHMARK.json", stdout, stderr)
	}
	on, err := strconv.ParseBool(trace)
	if err != nil || fs.NArg() != 0 || cfg.seconds < 1 {
		fmt.Fprintln(stderr, "e2e: bad arguments; see -h")
		return 2
	}
	cfg.trace = on
	return execute(cfg, stdout, stderr)
}

// execute runs the configured workloads; it returns 0 only if every one
// ran and every operation and check succeeded.
func execute(cfg config, stdout, stderr io.Writer) int {
	if cfg.walDir == "" {
		cfg.walDir = filepath.Join(cfg.outDir, "wal")
	}
	if err := os.MkdirAll(cfg.walDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "e2e:", err)
		return 1
	}
	fsName := fsType(cfg.walDir)
	fmt.Fprintf(stdout, "e2e: %s %s/%s GOMAXPROCS=%d; WAL dir %s on %s\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), cfg.walDir, fsName)
	if fsName == "tmpfs" && !cfg.allowTmpfs {
		fmt.Fprintln(stderr, "e2e: the WAL directory is on tmpfs, where an fsync costs nothing and ingest_wal measures no disk; pass -waldir or -allow-tmpfs")
		return 1
	}

	names := []string{cfg.workload}
	if cfg.workload == "all" {
		names = workloadNames
	}
	code := 0
	for _, name := range names {
		w, err := newWorkload(name)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 2
		}
		c := cfg
		c.workload = name
		rep, err := runWorkload(c, w, stdout)
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		printReport(stdout, rep, w)
		if err := saveReport(c.outDir, rep); err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		// The contract line: the last line of standard output.
		line, err := json.Marshal(contract{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		if err != nil {
			fmt.Fprintln(stderr, "e2e:", err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", line)
		if !rep.Correct {
			for _, f := range rep.Failures {
				fmt.Fprintln(stderr, "e2e: FAILED:", f)
			}
			code = 1
		}
	}
	return code
}

func printReport(out io.Writer, rep *report, w workload) {
	fmt.Fprintf(out, "== %s seed=%d: %d timed rounds (work unit: %s); %d op samples (%s); ops attempted %d, failed %d\n",
		rep.Workload, rep.Seed, rep.Rounds, w.unit(), rep.OpSamples, w.op(), rep.Attempted, rep.Failed)
	print := func(m map[string]measure) {
		names := make([]string, 0, len(m))
		for n := range m {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(out, "  %-42s %16.4f %s\n", n, m[n].Value, m[n].Unit)
		}
	}
	print(rep.Metrics)
	print(rep.Diag)
}

func saveReport(dir string, rep *report) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	kind := "result"
	if rep.Trace {
		kind = "layers"
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d.json", kind, rep.Workload, rep.Seed)), data, 0o644)
}
