package metrics

import (
	"testing"

	"netseer/internal/obs"
)

// The repo has two quantile implementations: the exact nearest-rank
// Percentile, which is the reference, and the fixed-bucket
// obs.HistogramSnapshot estimator. They share one contract — empty → 0,
// p at or below the bottom → min, p at or past the top → max, estimates
// never outside the observed range — and these tests pin the estimator
// to the reference on the small samples where the two historically
// disagreed.
func TestQuantileContractShared(t *testing.T) {
	cases := []struct {
		name    string
		samples []float64
		p       float64 // percent, 0–100
		want    float64 // exact nearest-rank answer
	}{
		{"empty_p50", nil, 50, 0},
		{"empty_p0", nil, 0, 0},
		{"empty_p100", nil, 100, 0},
		{"single_p0", []float64{3}, 0, 3},
		{"single_p50", []float64{3}, 50, 3},
		{"single_p100", []float64{3}, 100, 3},
		{"single_below_zero", []float64{3}, -10, 3},
		{"single_above_hundred", []float64{3}, 250, 3},
		{"two_p0", []float64{2, 10}, 0, 2},
		{"two_p100", []float64{2, 10}, 100, 10},
		{"large_value_p100", []float64{5000}, 100, 5000},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := Percentile(tc.samples, tc.p); got != tc.want {
				t.Errorf("Percentile(%v, %v) = %v, want %v", tc.samples, tc.p, got, tc.want)
			}

			oh := obs.NewHistogram(obs.LatencyBuckets())
			for _, v := range tc.samples {
				oh.Observe(v)
			}
			q := tc.p / 100
			if got := oh.Snapshot().Quantile(q); got != tc.want {
				t.Errorf("obs.HistogramSnapshot.Quantile(%v) over %v = %v, want %v", q, tc.samples, got, tc.want)
			}
		})
	}
}

// On two distinct values the mid quantiles may differ between exact and
// estimated forms, but both must stay inside the observed range.
func TestQuantileEstimatesStayInRange(t *testing.T) {
	samples := []float64{2, 1000}
	oh := obs.NewHistogram(obs.LatencyBuckets())
	for _, v := range samples {
		oh.Observe(v)
	}
	for _, q := range []float64{0.01, 0.25, 0.5, 0.75, 0.99} {
		if got := oh.Snapshot().Quantile(q); got < 2 || got > 1000 {
			t.Errorf("obs snapshot Quantile(%v) = %v outside [2, 1000]", q, got)
		}
		got := Percentile(samples, q*100)
		if got != 2 && got != 1000 {
			t.Errorf("Percentile(%v) = %v, want an observed element", q*100, got)
		}
	}
}
