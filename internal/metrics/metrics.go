// Package metrics provides the small statistics and formatting helpers
// the experiments share: percentiles, ratios, human-readable rates, and
// fixed-width text tables shaped like the paper's figures.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Percentile returns the p-th percentile (0–100) of xs using exact
// nearest-rank (no interpolation) on a sorted copy.
//
// Contract, shared with the histogram estimator
// (obs.HistogramSnapshot.Quantile): empty input returns 0; p <= 0
// returns the smallest element, p >= 100 the largest; results always lie
// inside the observed range, so on tiny samples (one or two elements)
// the exact and estimated forms agree — the estimator clamps its bucket
// midpoint to [min, max] for exactly this reason.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Ratio returns num/den, or 0 when den == 0.
func Ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// FormatBps renders a bit rate with automatic unit selection.
func FormatBps(bps float64) string {
	switch {
	case bps >= 1e12:
		return fmt.Sprintf("%.2f Tbps", bps/1e12)
	case bps >= 1e9:
		return fmt.Sprintf("%.2f Gbps", bps/1e9)
	case bps >= 1e6:
		return fmt.Sprintf("%.2f Mbps", bps/1e6)
	case bps >= 1e3:
		return fmt.Sprintf("%.2f Kbps", bps/1e3)
	default:
		return fmt.Sprintf("%.0f bps", bps)
	}
}

// FormatCount renders a count with automatic K/M/G suffix.
func FormatCount(n float64) string {
	switch {
	case n >= 1e9:
		return fmt.Sprintf("%.2fG", n/1e9)
	case n >= 1e6:
		return fmt.Sprintf("%.2fM", n/1e6)
	case n >= 1e3:
		return fmt.Sprintf("%.2fK", n/1e3)
	default:
		return fmt.Sprintf("%.0f", n)
	}
}

// Table accumulates rows and renders them with aligned columns — the
// output format of cmd/repro and the benchmark harness.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; cells beyond the header count are kept.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// Rows returns the row count.
func (t *Table) Rows() int { return len(t.rows) }

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	if t.Title != "" {
		sb.WriteString("== " + t.Title + " ==\n")
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i >= len(widths) {
				sb.WriteString("  " + c)
				continue
			}
			sb.WriteString(fmt.Sprintf("%-*s", widths[i], c))
			if i < len(cells)-1 {
				sb.WriteString("  ")
			}
		}
		sb.WriteString("\n")
	}
	writeRow(t.headers)
	var rule []string
	for _, w := range widths {
		rule = append(rule, strings.Repeat("-", w))
	}
	writeRow(rule)
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}
