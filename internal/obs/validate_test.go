package obs

import (
	"strings"
	"testing"
)

func TestValidateExpositionAccepts(t *testing.T) {
	for name, text := range map[string]string{
		"empty":            "",
		"bare sample":      "up 1\n",
		"sample with ts":   "up 1 1700000000000\n",
		"float values":     "x 1.5\ny 2e9\nz NaN\nw +Inf\n",
		"labeled":          "a{b=\"c\",d=\"e\"} 3\n",
		"escaped label":    "a{b=\"c\\\"d\\\\e\\nf\"} 3\n",
		"help only":        "# HELP up Is it up.\nup 1\n",
		"typed":            "# TYPE up gauge\nup 1\n",
		"untyped declared": "# TYPE up untyped\nup 1\n",
		"histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 3\nh_count 2\n",
		"labeled histogram": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\",s=\"x\"} 0\nh_bucket{s=\"x\",le=\"+Inf\"} 1\nh_sum{s=\"x\"} 9\nh_count{s=\"x\"} 1\n",
	} {
		if err := ValidateExposition([]byte(text)); err != nil {
			t.Errorf("%s: unexpected error: %v", name, err)
		}
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for name, text := range map[string]string{
		"stray comment":        "# just a note\n",
		"bad type":             "# TYPE up widget\nup 1\n",
		"type missing":         "# TYPE up\n",
		"duplicate type":       "# TYPE up gauge\n# TYPE up gauge\nup 1\n",
		"type after sample":    "up 1\n# TYPE up gauge\n",
		"bad metric name":      "7up 1\n",
		"bad comment name":     "# TYPE 7up gauge\n",
		"missing value":        "up\n",
		"bad value":            "up one\n",
		"bad timestamp":        "up 1 soon\n",
		"trailing garbage":     "up 1 2 3\n",
		"bad label name":       "a{b-c=\"d\"} 1\n",
		"unquoted label":       "a{b=c} 1\n",
		"unterminated label":   "a{b=\"c\n",
		"dangling escape":      "a{b=\"c\\\n",
		"bad escape":           "a{b=\"c\\t\"} 1\n",
		"label missing equals": "a{bc} 1\n",
		"bucket without le":    "# TYPE h histogram\nh_bucket{x=\"1\"} 1\nh_count 1\nh_sum 1\n",
		"non-cumulative buckets": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"+Inf\"} 3\nh_sum 1\nh_count 3\n",
		"missing inf bucket": "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"inf bucket mismatch": "# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 1\nh_bucket{le=\"+Inf\"} 1\nh_sum 1\nh_count 2\n",
	} {
		if err := ValidateExposition([]byte(text)); err == nil {
			t.Errorf("%s: expected error, got nil", name)
		}
	}
}

// The validator must accept everything the renderer can produce, on a
// registry exercising every feature at once.
func TestValidateAcceptsRendererOutput(t *testing.T) {
	r := NewRegistry()
	RegisterRuntime(r)
	var c Counter
	r.RegisterCounter(MIngestFrames, &c, L("shard", "3"))
	h := NewHistogram(LatencyBuckets())
	h.Observe(17)
	r.RegisterHistogram(MIngestLag, h)
	r.SamplesFunc(MStoreEvents, func() []Sample {
		return []Sample{{Labels: []Label{L("type", "drop"), L("switch", "1")}, Value: 4}}
	})
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if err := ValidateExposition([]byte(sb.String())); err != nil {
		t.Fatalf("renderer output rejected: %v\n%s", err, sb.String())
	}
}
