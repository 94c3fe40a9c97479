package obs

import (
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Kind is the exposition type of a metric family.
type Kind int

// Metric family kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// Label is one name=value pair attached to a series.
type Label struct{ Key, Value string }

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Sample is one dynamically labeled value produced at scrape time by a
// SamplesFunc collector.
type Sample struct {
	Labels []Label
	Value  float64
}

// series is one labeled time series inside a family. Exactly one of
// value/hist/samplesFn is set, matching the family kind.
type series struct {
	labels    []Label
	labelKey  string
	value     func() float64
	hist      func() HistogramSnapshot
	samplesFn func() []Sample
}

// family is a declared family and its live series, sorted by label set.
type family struct {
	decl
	series []*series
}

// Registry holds the instrument inventory of one process and renders it
// in the Prometheus text exposition format. It carries every declared
// family from construction; registration attaches a live series to one
// and is idempotent per (name, label set): re-registering replaces the
// series.
type Registry struct {
	mu   sync.Mutex
	fams []family // one per catalog row, in catalog (name) order
}

// NewRegistry returns a registry rendering every declared family.
func NewRegistry() *Registry {
	r := &Registry{fams: make([]family, len(catalog))}
	for i, d := range catalog {
		r.fams[i].decl = d
	}
	return r
}

// RegisterCounter exposes c under the declared counter name.
func (r *Registry) RegisterCounter(name string, c *Counter, labels ...Label) {
	r.register(name, &series{labels: labels, value: func() float64 { return float64(c.Load()) }}, KindCounter)
}

// RegisterMaxGauge exposes the high-water mark m under the declared gauge
// name.
func (r *Registry) RegisterMaxGauge(name string, m *MaxGauge, labels ...Label) {
	r.register(name, &series{labels: labels, value: func() float64 { return float64(m.Load()) }}, KindGauge)
}

// Func exposes a counter or gauge whose value is computed at scrape time.
// f must be safe to call from the scraping goroutine (take your own
// locks; never read single-owner hot-path memory).
func (r *Registry) Func(name string, f func() float64, labels ...Label) {
	r.register(name, &series{labels: labels, value: f}, KindCounter, KindGauge)
}

// RegisterHistogram exposes h under the declared histogram name.
func (r *Registry) RegisterHistogram(name string, h *Histogram, labels ...Label) {
	r.register(name, &series{labels: labels, hist: h.Snapshot}, KindHistogram)
}

// HistogramFunc exposes a histogram snapshot computed at scrape time —
// the hook for merging one logical instrument across many pipeline
// instances.
func (r *Registry) HistogramFunc(name string, f func() HistogramSnapshot, labels ...Label) {
	r.register(name, &series{labels: labels, hist: f}, KindHistogram)
}

// SamplesFunc registers a counter or gauge family whose labeled samples
// are produced at scrape time — the hook for label sets not known at
// registration (the store's per-switch and per-type event counts). f runs
// on the scraping goroutine and must take its own locks.
func (r *Registry) SamplesFunc(name string, f func() []Sample) {
	r.register(name, &series{labelKey: "\x00samples", samplesFn: f}, KindCounter, KindGauge)
}

// register attaches s to the declared family name, replacing a series
// with the same label set. It panics on an undeclared name, on a family
// whose declared kind is not one of kinds (what the instrument can
// render), and on a label key the family does not declare.
func (r *Registry) register(name string, s *series, kinds ...Kind) {
	i := sort.Search(len(r.fams), func(i int) bool { return r.fams[i].name >= name })
	if i == len(r.fams) || r.fams[i].name != name {
		panic(fmt.Sprintf("obs: metric %q is not declared in names.go", name))
	}
	f := &r.fams[i]
	if !slices.Contains(kinds, f.kind) {
		panic(fmt.Sprintf("obs: metric %q is declared a %v, registered as %v", name, f.kind, kinds))
	}
	for _, l := range s.labels {
		if !slices.Contains(f.labels, l.Key) {
			panic(fmt.Sprintf("obs: label %q is not declared on %q", l.Key, name))
		}
	}
	if s.samplesFn == nil {
		s.labelKey = renderLabels(s.labels)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	j := sort.Search(len(f.series), func(j int) bool { return f.series[j].labelKey >= s.labelKey })
	if j < len(f.series) && f.series[j].labelKey == s.labelKey {
		f.series[j] = s
		return
	}
	f.series = slices.Insert(f.series, j, s)
}

// WritePrometheus renders every declared family in the text exposition
// format, sorted by name for deterministic scrapes. A family with no live
// series renders one zero sample.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ser := make([][]*series, len(r.fams))
	for i := range r.fams {
		ser[i] = slices.Clone(r.fams[i].series)
	}
	r.mu.Unlock()
	var sb strings.Builder
	for i := range r.fams {
		f := &r.fams[i]
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.name, f.kind)
		if len(ser[i]) == 0 { // no live series: one zero sample
			if f.kind == KindHistogram {
				bounds := LatencyBuckets()
				writeHistogram(&sb, f.name, nil, HistogramSnapshot{Bounds: bounds, Counts: make([]uint64, len(bounds)+1)})
			} else {
				fmt.Fprintf(&sb, "%s 0\n", f.name)
			}
		}
		for _, s := range ser[i] {
			switch {
			case f.kind == KindHistogram:
				writeHistogram(&sb, f.name, s.labels, s.hist())
			case s.samplesFn != nil:
				samples := s.samplesFn()
				sort.Slice(samples, func(i, j int) bool {
					return renderLabels(samples[i].Labels) < renderLabels(samples[j].Labels)
				})
				for _, sm := range samples {
					fmt.Fprintf(&sb, "%s%s %s\n", f.name, renderLabels(sm.Labels), formatValue(sm.Value))
				}
			default:
				fmt.Fprintf(&sb, "%s%s %s\n", f.name, s.labelKey, formatValue(s.value()))
			}
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func writeHistogram(sb *strings.Builder, name string, labels []Label, snap HistogramSnapshot) {
	var cum uint64
	for i, n := range snap.Counts {
		cum += n
		le := "+Inf"
		if i < len(snap.Bounds) {
			le = formatValue(snap.Bounds[i])
		}
		withLE := append(append([]Label(nil), labels...), Label{Key: "le", Value: le})
		fmt.Fprintf(sb, "%s_bucket%s %d\n", name, renderLabels(withLE), cum)
	}
	fmt.Fprintf(sb, "%s_sum%s %s\n", name, renderLabels(labels), formatValue(snap.Sum))
	fmt.Fprintf(sb, "%s_count%s %d\n", name, renderLabels(labels), snap.Count)
}

func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var sb strings.Builder
	sb.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	sb.WriteByte('}')
	return sb.String()
}

func escapeLabelValue(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		alpha := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || s == "le" {
		return false // le is reserved for histogram buckets
	}
	for i, c := range s {
		alpha := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
		if !alpha && (i == 0 || c < '0' || c > '9') {
			return false
		}
	}
	return true
}
