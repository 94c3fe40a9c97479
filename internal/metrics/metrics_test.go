package metrics

import (
	"strings"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 3, 2, 4}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {20, 1}, {50, 3}, {99, 5}, {100, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Errorf("Percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Error("empty percentile not 0")
	}
	// Input must not be reordered.
	if xs[0] != 5 {
		t.Error("Percentile mutated its input")
	}
}

func TestRatio(t *testing.T) {
	if Ratio(1, 2) != 0.5 || Ratio(1, 0) != 0 {
		t.Error("Ratio wrong")
	}
}

func TestFormatBps(t *testing.T) {
	cases := map[float64]string{
		500:    "500 bps",
		2e3:    "2.00 Kbps",
		3.5e6:  "3.50 Mbps",
		6.4e12: "6.40 Tbps",
		1e9:    "1.00 Gbps",
	}
	for in, want := range cases {
		if got := FormatBps(in); got != want {
			t.Errorf("FormatBps(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestFormatCount(t *testing.T) {
	cases := map[float64]string{
		5:    "5",
		4e6:  "4.00M",
		86e6: "86.00M",
		2e9:  "2.00G",
		1500: "1.50K",
	}
	for in, want := range cases {
		if got := FormatCount(in); got != want {
			t.Errorf("FormatCount(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRow("beta-longer", "22")
	out := tb.String()
	if !strings.Contains(out, "== Demo ==") {
		t.Error("title missing")
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, rule, 2 rows
		t.Fatalf("rendered %d lines: %q", len(lines), out)
	}
	// Columns align: every data line has "value" column starting at the
	// same offset.
	idx := strings.Index(lines[1], "value")
	for _, l := range lines[3:] {
		if len(l) < idx {
			t.Errorf("row %q shorter than header offset", l)
		}
	}
	if tb.Rows() != 2 {
		t.Errorf("Rows() = %d", tb.Rows())
	}
}
