package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"netseer/internal/sim"
)

// The four end-to-end metrics every workload reports, with the share of
// the parent's median each may worsen by (BENCHMARK.json carries the same
// table; a test keeps the two in step).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"live_heap_mb", "MB", "lower", 0.05},
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// scale sizes a workload. full is what BENCHMARK.json measures; smoke is
// one tiny round with every check on, for tier-1.
type scale struct {
	window        sim.Time // testbed_web simulated window
	flows         int      // collector workloads: flow-table size
	ingestEvents  int      // ingest_wal: events per round
	recoverEvents int      // recover_wal: events in the log (half snapshot, half tail)
	queryEvents   int      // query_mixed: events stored
	queries       int      // query_mixed: queries per round
	probeSteps    int      // host probe: steps a sample
	probeKeys     int      // host probe: map entries
}

var (
	fullScale = scale{
		window: 10 * sim.Millisecond, flows: 200_000,
		ingestEvents: 1_000_000, recoverEvents: 2_000_000,
		queryEvents: 2_000_000, queries: 2000, probeSteps: probeSteps, probeKeys: probeKeys,
	}
	smokeScale = scale{
		window: 2 * sim.Millisecond, flows: 2000,
		ingestEvents: 20_000, recoverEvents: 40_000,
		queryEvents: 40_000, queries: 200, probeSteps: probeSteps / 20, probeKeys: probeKeys / 25,
	}
)

// nominalSeconds is the -seconds value the round counts below were sized
// for on the 2-CPU reference host; another value scales them in
// proportion. The counts are fixed work, never a clock: a slower host
// runs longer, it does not do less.
const nominalSeconds = 20

// fault seeds one defect so a test can prove the matching check bites.
// No flag sets it.
type fault struct {
	withholdBatch bool // ingest_wal: skip one batch but count it as sent
	flipDigest    bool // testbed_web, recover_wal: corrupt the reference digest
	perturbQuery  bool // query_mixed: shift one expected row count
}

type config struct {
	workload   string
	seed       uint64
	seconds    int
	trace      bool
	smoke      bool
	walDir     string
	outDir     string
	allowTmpfs bool
	fault      fault
}

func (c config) scale() scale {
	if c.smoke {
		return smokeScale
	}
	return fullScale
}

// ledger counts operations attempted and failed across the whole run:
// timed operations and correctness checks alike.
type ledger struct {
	attempted, failed int
	firstFailures     []string
}

// op records one operation; a non-nil err is a failure.
func (l *ledger) op(err error) {
	l.attempted++
	if err != nil {
		l.fail(err.Error())
	}
}

// check records one verification; ok=false is a failure.
func (l *ledger) check(ok bool, format string, args ...any) {
	l.attempted++
	if !ok {
		l.fail(fmt.Sprintf(format, args...))
	}
}

func (l *ledger) fail(msg string) {
	l.failed++
	if len(l.firstFailures) < 8 {
		l.firstFailures = append(l.firstFailures, msg)
	}
}

// env is what a workload sees of the run.
type env struct {
	cfg config
	sc  scale
	led *ledger
	tr  *tracer
	log io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// round is one pass of a workload's timed phase.
type round struct {
	index  int  // 0 is the warm-up
	traced bool // wrappers installed, spans recorded
	span   int  // the round's timed span, parent of what run records (-1 untraced)
	units  int64
	wall   time.Duration
	opsMs  []float64
}

// workload is one of the four benchmark workloads. The harness calls
// prepare once, then for each round newRound → run → check → endRound,
// then (traced runs only) layers, then finish. Only run is timed;
// prepare and newRound are what setup_s sums.
type workload interface {
	name() string
	unit() string // what work_per_s counts
	op() string   // what op_ms_p50 times
	baseRounds() int
	prepare(e *env) error
	newRound(e *env, r *round) error
	run(e *env, r *round) error
	check(e *env, r *round)
	endRound(e *env, r *round, last bool) error
	layers(e *env, u untraced, lm layerValues) error
	finish(e *env) error
}

func newWorkload(name string) (workload, error) {
	switch name {
	case "testbed_web":
		return &testbedWorkload{}, nil
	case "ingest_wal":
		return &ingestWorkload{}, nil
	case "recover_wal":
		return &recoverWorkload{}, nil
	case "query_mixed":
		return &queryWorkload{}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

var workloadNames = []string{"testbed_web", "ingest_wal", "recover_wal", "query_mixed"}

// untraced summarises the untraced timed rounds for the layer ledger.
type untraced struct {
	roundWallS float64 // median round wall
	units      float64 // median work units per round
}

// procSample is a reading of the process-wide cost counters.
type procSample struct {
	cpuS, gcCPUS float64
	mallocs      uint64
}

func readProc() procSample {
	var ru syscall.Rusage
	var p procSample
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
		p.cpuS = tv(ru.Utime) + tv(ru.Stime)
	}
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindFloat64 {
		p.gcCPUS = s[0].Value.Float64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.mallocs = s[1].Value.Uint64()
	}
	return p
}

func (p *procSample) addDelta(before, after procSample) {
	p.cpuS += after.cpuS - before.cpuS
	p.gcCPUS += after.gcCPUS - before.gcCPUS
	p.mallocs += after.mallocs - before.mallocs
}

func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// report is everything one run measured.
type report struct {
	Workload  string `json:"workload"`
	Seed      uint64 `json:"seed"`
	Trace     bool   `json:"trace"`
	Rounds    int    `json:"rounds"`
	OpSamples int    `json:"op_samples"`
	// WALFS is the filesystem the WAL directory sat on: an fsync costs
	// nothing on tmpfs, so -compare refuses to set such a run beside one
	// from a disk.
	WALFS     string             `json:"wal_fs"`
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
	// Diag holds the diagnostics an untraced run prints beside its four
	// metrics (tails, round-rate range, the clock's own readings, the host
	// probe); a traced run reports the same names as per-layer metrics.
	Diag     map[string]measure `json:"diag,omitempty"`
	Failures []string           `json:"failures,omitempty"`
}

// contract is the result line the driver reads: the last line of a
// run's standard output.
type contract struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]measure `json:"metrics"`
}

type measure struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runWorkload runs one workload end to end and returns its report.
func runWorkload(cfg config, w workload, log io.Writer) (*report, error) {
	e := &env{cfg: cfg, sc: cfg.scale(), led: &ledger{}, log: log}
	if cfg.trace {
		e.tr = newTracer()
	}
	timed := (w.baseRounds()*cfg.seconds + nominalSeconds/2) / nominalSeconds
	if cfg.smoke || timed < 1 {
		timed = 1
	}
	// A traced run splits its rounds: the first share runs untraced (the
	// yardstick for trace.overhead_frac and the diag.* numbers), the
	// rest with wrappers and spans on.
	untracedRounds, tracedRounds := timed, 0
	if cfg.trace {
		untracedRounds = (timed + 3) / 4
		tracedRounds = untracedRounds
	}
	e.logf("workload %s: seed=%d rounds=1 warm-up + %d timed + %d traced; unit=%s; op=%s",
		w.name(), cfg.seed, untracedRounds, tracedRounds, w.unit(), w.op())

	runStart := time.Now()
	probe := hostProbe{nKeys: e.sc.probeKeys}
	var probeMs []float64

	var setup, timedPhase time.Duration
	t0 := time.Now()
	root := e.tr.begin("prepare", -1, -1)
	err := w.prepare(e)
	e.tr.end(root)
	setup += time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", w.name(), err)
	}

	var (
		rates, walls, ops []float64
		tracedWalls       []float64
		units             []float64
		proc              procSample
		heapMB            float64
	)
	total := 1 + untracedRounds + tracedRounds
	first := 0
	if cfg.smoke {
		first = 1 // no warm-up: smoke checks behaviour, it measures nothing
	}
	for i := first; i < total; i++ {
		r := &round{index: i, traced: i > untracedRounds}
		// One round's garbage must not be charged to the next. Then the
		// host probe, which leaves none.
		runtime.GC()
		probeMs = append(probeMs, probe.sample(e.sc.probeSteps))

		t0 = time.Now()
		sp := e.tr.begin("round.setup", -1, i)
		err := w.newRound(e, r)
		e.tr.end(sp)
		setup += time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("%s: round %d set-up: %w", w.name(), i, err)
		}

		before := readProc()
		t0 = time.Now()
		r.span = e.tr.begin("round.timed", -1, i)
		err = w.run(e, r)
		e.tr.end(r.span)
		r.wall = time.Since(t0)
		timedPhase += r.wall
		after := readProc()
		if err != nil {
			return nil, fmt.Errorf("%s: round %d: %w", w.name(), i, err)
		}

		w.check(e, r)
		rate := float64(r.units) / r.wall.Seconds()
		kind := "timed"
		switch {
		case i == 0:
			kind = "warm-up"
		case r.traced:
			kind = "traced"
			tracedWalls = append(tracedWalls, r.wall.Seconds())
		default:
			rates = append(rates, rate)
			walls = append(walls, r.wall.Seconds())
			units = append(units, float64(r.units))
			ops = append(ops, r.opsMs...)
			proc.addDelta(before, after)
		}
		e.logf("  round %2d %-7s %9d %s in %8.1f ms = %12.1f /s   (probe %6.2f ms)",
			i, kind, r.units, w.unit(), r.wall.Seconds()*1e3, rate, probeMs[len(probeMs)-1])

		last := i == untracedRounds
		if last {
			// The last untraced round's system is still reachable
			// through w here; the probe's tables are not.
			probe.release()
			heapMB = liveHeapMB()
			runtime.KeepAlive(w)
		}
		if err := w.endRound(e, r, last); err != nil {
			return nil, fmt.Errorf("%s: round %d teardown: %w", w.name(), i, err)
		}
	}

	u := untraced{roundWallS: median(walls), units: median(units)}
	lv := layerValues{}
	if cfg.trace {
		if err := w.layers(e, u, lv); err != nil {
			return nil, fmt.Errorf("%s: layer ledger: %w", w.name(), err)
		}
	}
	if err := w.finish(e); err != nil {
		return nil, fmt.Errorf("%s: finish: %w", w.name(), err)
	}
	// speed is this host during this run against the reference host:
	// below 1 in a slow spell. (A smoke run's short probe makes it
	// meaningless, as are the times it scales.)
	speed := probeNominalMs / median(probeMs)
	whole := time.Since(runStart)
	e.logf("  run: %.1f s = set-up %.1f + rounds %.1f (warm-up included) + checks, forced GCs, replays and probes %.1f",
		whole.Seconds(), setup.Seconds(), timedPhase.Seconds(), (whole - setup - timedPhase).Seconds())
	e.logf("  host: probe median %.2f ms over %d samples (%.2f–%.2f), speed %.4f of the reference host",
		median(probeMs), len(probeMs), percentile(probeMs, 0), percentile(probeMs, 100), speed)

	rateLo, rateHi := minMax(rates)
	_, opMax := minMax(ops)
	diag := layerValues{
		"diag.op_ms_p99":         percentile(ops, 99),
		"diag.op_ms_max":         opMax,
		"diag.round_rate_min":    rateLo,
		"diag.round_rate_max":    rateHi,
		"diag.work_per_s_raw":    median(rates),
		"diag.op_ms_p50_raw":     median(ops),
		"diag.setup_s_raw":       setup.Seconds(),
		"host.calib_mops_before": float64(e.sc.probeSteps) / probeMs[0] / 1e3,
		"host.calib_mops_after":  float64(e.sc.probeSteps) / probeMs[len(probeMs)-1] / 1e3,
		"host.probe_ms_p50":      median(probeMs),
		"host.speed":             speed,
	}
	rep := &report{
		Workload: w.name(), Seed: cfg.seed, Trace: cfg.trace,
		Rounds: untracedRounds, OpSamples: len(ops), WALFS: fsType(cfg.walDir),
		Metrics: map[string]measure{},
	}
	if cfg.trace {
		totalUnits := 0.0
		for _, n := range units {
			totalUnits += n
		}
		for k, v := range diag {
			lv[k] = v
		}
		lv["proc.cpu_s_per_mwork"] = ratio(proc.cpuS, totalUnits) * 1e6
		lv["proc.allocs_per_work"] = ratio(float64(proc.mallocs), totalUnits)
		lv["proc.gc_cpu_frac"] = ratio(proc.gcCPUS, proc.cpuS)
		lv["trace.overhead_frac"] = ratio(median(tracedWalls), u.roundWallS) - 1
		for _, d := range perLayer {
			rep.Metrics[d.Name] = measure{lv[d.Name], d.Unit}
		}
		if err := e.tr.write(cfg.outDir, w.name()); err != nil {
			return nil, err
		}
	} else {
		// The three times are reported at the reference host's speed;
		// what the clock read is in the diag.*_raw lines.
		values := layerValues{
			"setup_s": setup.Seconds() * speed, "work_per_s": median(rates) / speed,
			"op_ms_p50": median(ops) * speed, "live_heap_mb": heapMB,
		}
		for _, d := range endToEnd {
			rep.Metrics[d.Name] = measure{values[d.Name], d.Unit}
		}
		rep.Diag = map[string]measure{}
		for _, d := range perLayer {
			if v, ok := diag[d.Name]; ok {
				rep.Diag[d.Name] = measure{v, d.Unit}
			}
		}
	}
	rep.Attempted, rep.Failed = e.led.attempted, e.led.failed
	rep.Correct = e.led.failed == 0
	rep.Failures = e.led.firstFailures
	return rep, nil
}
