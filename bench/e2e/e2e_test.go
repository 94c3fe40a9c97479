package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"netseer/internal/fevent"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentileVectors(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ p, want float64 }{
		{0, 1}, {25, 3}, {50, 5}, {62.5, 6}, {99, 8.92}, {100, 9},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of an empty sample must be 0")
	}
	if xs[0] != 9 {
		t.Error("percentile reordered its input")
	}
}

// The vectors are what Python's statistics.quantiles(xs, n=4) prints.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{4, 3, 2, 1}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{1, 2, 4, 8, 16}, [3]float64{1.5, 4, 12}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		if !near(q1, c.want[0]) || !near(q2, c.want[1]) || !near(q3, c.want[2]) {
			t.Errorf("quartiles(%v) = %v %v %v, want %v", c.xs, q1, q2, q3, c.want)
		}
	}
}

func encodeAll(t *testing.T, batches []*fevent.Batch) []byte {
	t.Helper()
	var buf, all bytes.Buffer
	for _, b := range batches {
		p, err := framePayload(&buf, b)
		if err != nil {
			t.Fatal(err)
		}
		all.Write(p)
	}
	return all.Bytes()
}

func TestGeneratorIsPureInSeed(t *testing.T) {
	a := encodeAll(t, genBatches(7, 5000, 500))
	b := encodeAll(t, genBatches(7, 5000, 500))
	c := encodeAll(t, genBatches(8, 5000, 500))
	if !bytes.Equal(a, b) {
		t.Error("two calls with one seed produced different batches")
	}
	if bytes.Equal(a, c) {
		t.Error("a different seed produced identical batches")
	}
}

func TestGeneratorShape(t *testing.T) {
	batches := genBatches(3, 10_000, 1000)
	if n := countEvents(batches); n < 10_000 || n >= 10_000+267 {
		t.Errorf("generated %d events, want 10000 rounded up to a whole size cycle", n)
	}
	switches := map[uint16]bool{}
	types := map[fevent.Type]int{}
	for i, b := range batches {
		if want := batchSizeCycle[i%len(batchSizeCycle)]; len(b.Events) != want {
			t.Fatalf("batch %d has %d events, want %d", i, len(b.Events), want)
		}
		if i > 0 && b.Timestamp <= batches[i-1].Timestamp {
			t.Fatalf("batch %d timestamp does not advance", i)
		}
		switches[b.SwitchID] = true
		for j := range b.Events {
			e := &b.Events[j]
			types[e.Type]++
			if e.SwitchID != b.SwitchID || e.Timestamp != b.Timestamp {
				t.Fatalf("batch %d event %d does not carry the batch's switch and stamp", i, j)
			}
			// Only wire-carried fields may be set: the event must
			// survive the 24-byte record unchanged.
			var back fevent.Event
			if err := back.DecodeRecord(e.AppendRecord(nil)); err != nil {
				t.Fatal(err)
			}
			back.SwitchID, back.Timestamp = e.SwitchID, e.Timestamp
			if back != *e {
				t.Fatalf("event does not round-trip the wire record:\n got %+v\nwant %+v", back, *e)
			}
		}
	}
	if len(switches) != genSwitches {
		t.Errorf("%d switch IDs in use, want %d", len(switches), genSwitches)
	}
	if len(types) != 4 {
		t.Errorf("event types in use: %v, want four", types)
	}
	// Zipf(1): the most popular flow of 1000 draws about 1/H(1000) ≈ 13 %.
	counts := map[string]int{}
	for _, b := range batches {
		for j := range b.Events {
			counts[b.Events[j].Flow.String()]++
		}
	}
	top := 0
	for _, n := range counts {
		if n > top {
			top = n
		}
	}
	if share := float64(top) / float64(countEvents(batches)); share < 0.10 || share > 0.17 {
		t.Errorf("top flow holds %.3f of the events, want ≈ 0.134 (Zipf(1) over 1000 flows)", share)
	}
}

func TestQueryListMix(t *testing.T) {
	batches := genBatches(5, 5000, 300)
	flows := distinctFlows(batches)
	tMax := batches[len(batches)-1].Timestamp
	qs := genQueries(5, 2000, flows, tMax)
	var n [numKinds]int
	for i, q := range qs {
		n[q.kind]++
		want := kindFlow
		switch {
		case i%100 == 99:
			want = kindScan
		case i%20 == 9:
			want = kindIndex
		}
		if q.kind != want {
			t.Fatalf("query %d is kind %s, want %s", i, kindNames[q.kind], kindNames[want])
		}
	}
	if n != [numKinds]int{1880, 100, 20} {
		t.Errorf("mix = %v, want 1880 flow / 100 index / 20 scan", n)
	}
	again := genQueries(5, 2000, flows, tMax)
	for i := range qs {
		if qs[i].line != again[i].line {
			t.Fatal("the query list is not a pure function of the seed")
		}
	}
	if !strings.HasPrefix(qs[0].line, "query flow=") || !strings.HasPrefix(qs[9].line, "count switch=") ||
		!strings.HasPrefix(qs[99].line, "count since=") {
		t.Errorf("unexpected query lines: %q %q %q", qs[0].line, qs[9].line, qs[99].line)
	}
}

// -seed must change testbed_web's inputs (the link-fault process) and
// leave its amount of work alone (the traffic is pinned): ten runs with
// ten seeds have to agree within the bounds.
func TestTestbedSeedMovesFaultsNotTraffic(t *testing.T) {
	var digests, packets [2]uint64
	for i := range digests {
		w := &testbedWorkload{}
		e := &env{cfg: config{seed: uint64(i + 1)}, sc: smokeScale, led: &ledger{}, log: io.Discard}
		if err := w.prepare(e); err != nil || e.led.failed != 0 {
			t.Fatalf("seed %d: err %v, failures %v", i+1, err, e.led.firstFailures)
		}
		digests[i], packets[i] = w.refDigest, w.refPackets
	}
	if digests[0] == digests[1] {
		t.Error("two seeds stored identical events: -seed does not reach the inputs")
	}
	if d := math.Abs(float64(packets[0])-float64(packets[1])) / float64(packets[0]); d > 0.01 {
		t.Errorf("two seeds simulated %d and %d packets: the work must not follow the seed", packets[0], packets[1])
	}
}

func smokeConfig(t *testing.T, workload string) config {
	dir := t.TempDir()
	return config{workload: workload, seed: 1, seconds: nominalSeconds, smoke: true,
		outDir: dir, walDir: filepath.Join(dir, "wal"), allowTmpfs: true}
}

// contractLines returns the JSON result lines of a run's output, one per
// workload.
func contractLines(t *testing.T, out string) []contract {
	t.Helper()
	var docs []contract
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var d contract
		if err := json.Unmarshal([]byte(line), &d); err != nil {
			t.Fatalf("bad result line %q: %v", line, err)
		}
		docs = append(docs, d)
	}
	return docs
}

func metricNames(m map[string]measure) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// TestSmoke runs one tiny round of every workload with every correctness
// check on: tier-1 fails when a layer's public API or behaviour drifts
// out from under the benchmark. Each result document must list exactly
// the four end-to-end metrics.
func TestSmoke(t *testing.T) {
	var stdout, stderr bytes.Buffer
	cfg := smokeConfig(t, "all")
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("smoke run exited %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	docs := contractLines(t, stdout.String())
	if len(docs) != len(workloadNames) {
		t.Fatalf("%d result lines, want one per workload (%d)", len(docs), len(workloadNames))
	}
	var want []string
	for _, d := range endToEnd {
		want = append(want, d.Name)
	}
	sort.Strings(want)
	for i, d := range docs {
		if got := metricNames(d.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s reports metrics %v, want exactly %v", workloadNames[i], got, want)
		}
		if !d.Correct || d.Failed != 0 || d.Attempted < 1 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", workloadNames[i], d.Correct, d.Attempted, d.Failed)
		}
		for _, def := range endToEnd {
			if m := d.Metrics[def.Name]; m.Unit != def.Unit || !(m.Value > 0) {
				t.Errorf("%s %s = %v %q, want a positive value in %q", workloadNames[i], def.Name, m.Value, m.Unit, def.Unit)
			}
		}
		// The three times are the clock's readings scaled by the host's
		// speed, and the result file keeps both.
		var rep report
		data, err := os.ReadFile(filepath.Join(cfg.outDir, "result-"+workloadNames[i]+"-seed1.json"))
		if err == nil {
			err = json.Unmarshal(data, &rep)
		}
		if err != nil {
			t.Fatal(err)
		}
		speed := rep.Diag["host.speed"].Value
		for _, c := range []struct{ metric, raw string }{
			{"setup_s", "diag.setup_s_raw"}, {"op_ms_p50", "diag.op_ms_p50_raw"},
		} {
			if got, want := rep.Metrics[c.metric].Value, rep.Diag[c.raw].Value*speed; !(speed > 0) || math.Abs(got-want) > 1e-9*want {
				t.Errorf("%s %s = %v, want %s × host.speed = %v", workloadNames[i], c.metric, got, c.raw, want)
			}
		}
		if got, want := rep.Metrics["work_per_s"].Value, rep.Diag["diag.work_per_s_raw"].Value/speed; math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s work_per_s = %v, want diag.work_per_s_raw ÷ host.speed = %v", workloadNames[i], got, want)
		}
	}
}

// The host probe must do the same work on every call, allocate nothing
// while it runs, and hand its tables back before live_heap_mb is read.
func TestHostProbe(t *testing.T) {
	p := hostProbe{nKeys: 20_000}
	p.sample(2000)
	first := p.sink
	p.sink = 0
	if allocs := testing.AllocsPerRun(3, func() { p.sample(2000) }); allocs != 0 {
		t.Errorf("a probe sample allocates %v times, want 0", allocs)
	}
	if p.sink != 4*first { // AllocsPerRun calls it once more to warm up
		t.Errorf("probe samples did different work: checksum %d over four samples, first sample %d", p.sink, first)
	}
	p.release()
	if p.table != nil || p.keys != nil || p.events != nil || p.heap != nil {
		t.Error("release left the probe's tables reachable")
	}
}

// TestSmokeTraced checks the traced run prints every per-layer metric,
// the ones a workload exercises non-zero, and writes the span file.
func TestSmokeTraced(t *testing.T) {
	cfg := smokeConfig(t, "all")
	cfg.trace = true
	var stdout, stderr bytes.Buffer
	if code := execute(cfg, &stdout, &stderr); code != 0 {
		t.Fatalf("traced smoke run exited %d\nstderr: %s\nstdout: %s", code, &stderr, &stdout)
	}
	docs := contractLines(t, stdout.String())
	if len(docs) != len(workloadNames) {
		t.Fatalf("%d result lines, want %d", len(docs), len(workloadNames))
	}
	exercised := map[string][]string{
		"testbed_web": {"sim.events_per_pkt", "sim.sched_ns_per_event", "dataplane.base_ns_per_pkt", "core.telemetry_ns_per_pkt",
			"core.exported_events", "groupcache.ns_per_offer", "fpelim.ns_per_offer", "batcher.ns_per_event", "collector.store.sink_ns_per_event"},
		"ingest_wal": {"collector.frame.encode_ns_per_event", "collector.store.deliver_ns_per_event", "collector.wal.append_ns_per_event",
			"collector.wal.group_commit_factor", "collector.client.ack_ms_p50", "collector.server.ingest_lag_ms_p50"},
		"recover_wal": {"collector.recover.snapshot_ns_per_event", "collector.recover.replay_ns_per_event", "collector.wal.replay_ns_per_event"},
		"query_mixed": {"collector.query.flow_us_p50", "collector.query.scan_ms_p50", "collector.store.query_flow_us_p50", "collector.query.rows_per_flow_query"},
	}
	for i, d := range docs {
		name := workloadNames[i]
		if len(d.Metrics) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics, want %d", name, len(d.Metrics), len(perLayer))
		}
		for _, def := range perLayer {
			m, ok := d.Metrics[def.Name]
			if !ok || m.Unit != def.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				t.Errorf("%s: %s = %+v (present=%v), want a finite value in %q", name, def.Name, m, ok, def.Unit)
			}
		}
		for _, n := range append(exercised[name], "trace.coverage", "proc.cpu_s_per_mwork", "host.calib_mops_before") {
			if !(d.Metrics[n].Value > 0) {
				t.Errorf("%s: %s = %v, want > 0", name, n, d.Metrics[n].Value)
			}
		}
		var spans []span
		data, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+name+".json"))
		if err == nil {
			err = json.Unmarshal(data, &spans)
		}
		if err != nil || len(spans) == 0 {
			t.Errorf("%s: span file: %d spans, err %v", name, len(spans), err)
		}
		for j, s := range spans {
			if s.End < s.Start || s.Parent >= j {
				t.Errorf("%s: span %d %+v is malformed", name, j, s)
				break
			}
		}
	}
}

// Each workload's check must bite: one seeded defect, one failed
// operation, a non-zero exit.
func TestChecksBite(t *testing.T) {
	for _, c := range []struct {
		workload string
		fault    fault
		mention  string
	}{
		{"testbed_web", fault{flipDigest: true}, "digest"},
		{"ingest_wal", fault{withholdBatch: true}, "store holds"},
		{"recover_wal", fault{flipDigest: true}, "digest"},
		{"query_mixed", fault{perturbQuery: true}, "answered"},
	} {
		cfg := smokeConfig(t, c.workload)
		cfg.fault = c.fault
		var stdout, stderr bytes.Buffer
		code := execute(cfg, &stdout, &stderr)
		docs := contractLines(t, stdout.String())
		if code == 0 || len(docs) != 1 || docs[0].Correct || docs[0].Failed < 1 {
			t.Errorf("%s with %+v: exit %d, result %+v — the check did not bite", c.workload, c.fault, code, docs)
			continue
		}
		if !strings.Contains(stderr.String(), c.mention) {
			t.Errorf("%s: failure output does not mention %q:\n%s", c.workload, c.mention, &stderr)
		}
	}
}

// TestBenchmarkJSONInStep keeps BENCHMARK.json and the tables this
// package prints from in agreement.
func TestBenchmarkJSONInStep(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "bench/e2e" {
		t.Errorf("paths = %v", doc.Paths)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads = %v, want %v", names, workloadNames)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the package", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the package %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(set string, i int, rate, setup float64) {
		fs := "ext4"
		if set == "tmpfs" {
			fs = "tmpfs"
		}
		rep := report{Workload: "ingest_wal", Seed: uint64(i), WALFS: fs, Metrics: map[string]measure{
			"setup_s": {setup, "s"}, "work_per_s": {rate, "1/s"}, "op_ms_p50": {5, "ms"}, "live_heap_mb": {100, "MB"},
		}}
		if err := saveReport(filepath.Join(dir, set), &rep); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		jitter := float64(i%3) * 0.01
		write("a", i, 1000*(1+jitter), 1+jitter)
		write("same", i, 1010*(1+jitter), 1+jitter)
		write("worse", i, 700*(1+jitter), 1+jitter)          // work_per_s 30 % lower
		write("noisy", i, 1000*(1+jitter), 1+float64(i)*0.1) // setup_s spread ≈ 40 %
		write("tmpfs", i, 1000*(1+jitter), 1+jitter)         // same numbers, WAL on tmpfs
	}
	bounds := filepath.Join(dir, "bounds.json")
	data, _ := json.Marshal(map[string]any{"end_to_end": endToEnd})
	if err := os.WriteFile(bounds, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		set     string
		code    int
		verdict string
	}{{"same", 0, ""}, {"worse", 1, "worse"}, {"noisy", 1, "unresolved"}, {"tmpfs", 2, "refused"}} {
		var out, errw bytes.Buffer
		code := compareSets(filepath.Join(dir, "a"), filepath.Join(dir, c.set), bounds, &out, &errw)
		if code != c.code {
			t.Errorf("%s: exit %d, want %d", c.set, code, c.code)
		}
		if c.verdict == "refused" {
			if out.Len() != 0 || !strings.Contains(errw.String(), "different filesystems") {
				t.Errorf("%s: want a refusal and no table, got %q / %q", c.set, &errw, &out)
			}
			continue
		}
		for _, word := range []string{"worse", "unresolved"} {
			if has := strings.Contains(out.String(), "  "+word+" ("); has != (word == c.verdict) {
				t.Errorf("%s: verdict %q present=%v, want %v\n%s", c.set, word, has, word == c.verdict, &out)
			}
		}
		if n := strings.Count(out.String(), "  same ("); c.verdict == "" && n != len(endToEnd) {
			t.Errorf("%s: %d 'same' verdicts, want %d\n%s", c.set, n, len(endToEnd), &out)
		}
	}
}
