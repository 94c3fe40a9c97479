package obs

import (
	"strings"
	"testing"
)

func exposition(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := ValidateExposition([]byte(sb.String())); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, sb.String())
	}
	return sb.String()
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: expected panic", what)
		}
	}()
	fn()
}

func TestCatalogDeclaresEachFamilyOnce(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range catalog {
		if !validMetricName(d.name) {
			t.Errorf("%q: invalid metric name", d.name)
		}
		if seen[d.name] {
			t.Errorf("%q declared twice", d.name)
		}
		seen[d.name] = true
		if d.help == "" {
			t.Errorf("%q: empty help", d.name)
		}
		if strings.HasSuffix(d.name, "_total") != (d.kind == KindCounter) {
			t.Errorf("%q is a %v: a name ends in _total if and only if it is a counter", d.name, d.kind)
		}
		for _, k := range d.labels {
			if !validLabelName(k) {
				t.Errorf("%q: invalid label key %q", d.name, k)
			}
		}
	}
	// Every exported name is a row: the runtime families included.
	for _, name := range []string{MDetectEvents, MIngestLag, MStoreEvents, MFabricFencedEvents, MGoroutines, MUptime} {
		if !seen[name] {
			t.Errorf("%q has no row", name)
		}
	}
}

func TestRegisterRejectsUndeclared(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var m MaxGauge
	h := NewHistogram(LatencyBuckets())
	for what, fn := range map[string]func(){
		"undeclared counter":        func() { r.RegisterCounter("test_ops_total", &c) },
		"undeclared func":           func() { r.Func("netseer_nope", func() float64 { return 0 }) },
		"undeclared histogram":      func() { r.RegisterHistogram("lat_us", h) },
		"empty name":                func() { r.RegisterCounter("", &c) },
		"counter on a gauge":        func() { r.RegisterCounter(MStoreFlows, &c) },
		"max gauge on a counter":    func() { r.RegisterMaxGauge(MIngestFrames, &m) },
		"func on a histogram":       func() { r.Func(MIngestLag, func() float64 { return 0 }) },
		"histogram on a counter":    func() { r.RegisterHistogram(MIngestFrames, h) },
		"histogram func on a gauge": func() { r.HistogramFunc(MStoreFlows, h.Snapshot) },
		"samples on a histogram":    func() { r.SamplesFunc(MDetectToStore, nil) },
	} {
		mustPanic(t, what, fn)
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	var c Counter
	for what, fn := range map[string]func(){
		"undeclared label key": func() { r.RegisterCounter(MIngestFrames, &c, L("switch", "1")) },
		"invalid label key":    func() { r.RegisterCounter(MIngestFrames, &c, L("bad-key", "v")) },
		"reserved le label":    func() { r.RegisterCounter(MIngestFrames, &c, L("le", "v")) },
	} {
		mustPanic(t, what, fn)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	var c Counter
	var m MaxGauge
	c.Add(3)
	m.Observe(9)
	r.RegisterCounter(MChanRetransmits, &c)
	r.RegisterMaxGauge(MChanBacklogHW, &m)
	r.Func(MQueryErrors, func() float64 { return 5 })
	r.Func(MStoreFlows, func() float64 { return 1.5 })
	out := exposition(t, r)
	for _, want := range []string{
		"# TYPE " + MChanRetransmits + " counter",
		MChanRetransmits + " 3",
		"# TYPE " + MChanBacklogHW + " gauge",
		MChanBacklogHW + " 9",
		"# TYPE " + MQueryErrors + " counter",
		MQueryErrors + " 5",
		"# TYPE " + MStoreFlows + " gauge",
		MStoreFlows + " 1.5",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryRendersEveryDeclaredFamily: a fresh registry renders every
// row — the declared help and type, and a zero sample (an empty
// histogram) — and a live series replaces the zero sample.
func TestRegistryRendersEveryDeclaredFamily(t *testing.T) {
	r := NewRegistry()
	out := exposition(t, r)
	if n := strings.Count(out, "# TYPE "); n != len(catalog) {
		t.Errorf("%d families rendered, %d declared", n, len(catalog))
	}
	for _, d := range catalog {
		if !strings.Contains(out, "# HELP "+d.name+" "+escapeHelp(d.help)+"\n# TYPE "+d.name+" "+d.kind.String()+"\n") {
			t.Errorf("%q: declared help or type not rendered", d.name)
		}
	}
	for _, want := range []string{
		MGroupEvictions + " 0",
		MChanRetransmits + " 0",
		MIngestLag + "_count 0",
		MDetectToStore + `_bucket{le="+Inf"} 0`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("zero sample %q missing", want)
		}
	}
	var ev Counter
	ev.Add(12)
	r.RegisterCounter(MGroupEvictions, &ev)
	out = exposition(t, r)
	if !strings.Contains(out, MGroupEvictions+" 12\n") || strings.Contains(out, MGroupEvictions+" 0\n") {
		t.Fatalf("live series did not replace the zero sample:\n%s", out)
	}
}

func TestRegistryLabels(t *testing.T) {
	r := NewRegistry()
	// Labels render sorted by key regardless of registration order.
	r.Func(MStoreEvents, func() float64 { return 1 }, L("type", "drop"), L("switch", "1"))
	r.Func(MStoreEvents, func() float64 { return 2 }, L("type", "pause"), L("switch", "2"))
	out := exposition(t, r)
	if !strings.Contains(out, MStoreEvents+`{switch="1",type="drop"} 1`) {
		t.Fatalf("labeled series missing or unsorted:\n%s", out)
	}
	if !strings.Contains(out, MStoreEvents+`{switch="2",type="pause"} 2`) {
		t.Fatalf("second series missing:\n%s", out)
	}
	// Re-registering the same (name, labels) replaces the series.
	r.Func(MStoreEvents, func() float64 { return 9 }, L("switch", "1"), L("type", "drop"))
	out = exposition(t, r)
	if !strings.Contains(out, MStoreEvents+`{switch="1",type="drop"} 9`) ||
		strings.Contains(out, MStoreEvents+`{switch="1",type="drop"} 1`) {
		t.Fatalf("re-registration did not replace:\n%s", out)
	}
}

func TestRegistryLabelEscaping(t *testing.T) {
	r := NewRegistry()
	var c Counter
	r.RegisterCounter(MQueryRequests, &c, L("verb", "a\"b\\c\nd"))
	out := exposition(t, r)
	if !strings.Contains(out, MQueryRequests+`{verb="a\"b\\c\nd"} 0`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
	if got := escapeHelp("back\\slash\nline"); got != `back\\slash\nline` {
		t.Fatalf("help escaping = %q", got)
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := NewHistogram([]float64{1, 10})
	h.Observe(0.5)
	h.Observe(5)
	h.Observe(50)
	r.RegisterHistogram(MIngestLag, h, L("shard", "1"))
	out := exposition(t, r)
	for _, want := range []string{
		"# TYPE " + MIngestLag + " histogram",
		MIngestLag + `_bucket{le="1",shard="1"} 1`,
		MIngestLag + `_bucket{le="10",shard="1"} 2`,
		MIngestLag + `_bucket{le="+Inf",shard="1"} 3`,
		MIngestLag + `_sum{shard="1"} 55.5`,
		MIngestLag + `_count{shard="1"} 3`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// HistogramFunc merges snapshots at scrape time.
	h2 := NewHistogram([]float64{1, 10})
	h2.Observe(2)
	r.HistogramFunc(MChanAckLatency, func() HistogramSnapshot {
		s := h.Snapshot()
		s.Merge(h2.Snapshot())
		return s
	})
	out = exposition(t, r)
	if !strings.Contains(out, MChanAckLatency+"_count 4\n") {
		t.Fatalf("merged histogram count wrong:\n%s", out)
	}
}

func TestRegistrySamplesFunc(t *testing.T) {
	r := NewRegistry()
	r.SamplesFunc(MStoreEvents, func() []Sample {
		return []Sample{
			{Labels: []Label{L("type", "drop")}, Value: 7},
			{Labels: []Label{L("type", "congestion")}, Value: 2},
		}
	})
	out := exposition(t, r)
	if !strings.Contains(out, MStoreEvents+`{type="congestion"} 2`) ||
		!strings.Contains(out, MStoreEvents+`{type="drop"} 7`) {
		t.Fatalf("samples missing:\n%s", out)
	}
	if strings.Contains(out, MStoreEvents+" 0") {
		t.Fatalf("zero sample rendered beside a live SamplesFunc:\n%s", out)
	}
}

func TestRegisterRuntime(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	out := exposition(t, r)
	for _, name := range []string{MGoroutines, MHeapAllocBytes, MAllocBytes, MGCCycles, MUptime} {
		if !strings.Contains(out, name) {
			t.Errorf("runtime metric %s missing", name)
		}
	}
	if strings.Contains(out, MGoroutines+" 0\n") {
		t.Error("go_goroutines should be nonzero in a running test")
	}
}
