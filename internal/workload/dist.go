// Package workload generates traffic for the evaluation: flow-size
// samplers for the five empirical distributions the paper uses (DCTCP web
// search, VL2 data mining, and Facebook's CACHE / HADOOP / WEB from Roy
// et al.), Poisson flow arrivals targeting a link utilization, and incast
// bursts.
package workload

import (
	"fmt"
	"math"
	"sort"

	"netseer/internal/sim"
)

// CDFPoint is one point of an empirical flow-size CDF: P(size <= Bytes) =
// Frac.
type CDFPoint struct {
	Bytes float64
	Frac  float64
}

// Distribution samples flow sizes from a piecewise log-linear empirical
// CDF.
type Distribution struct {
	Name   string
	points []CDFPoint
	mean   float64
}

// NewDistribution builds a distribution from CDF points (Frac strictly
// increasing, ending at 1.0).
func NewDistribution(name string, points []CDFPoint) *Distribution {
	if len(points) < 2 {
		panic("workload: need at least 2 CDF points")
	}
	sorted := append([]CDFPoint(nil), points...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Frac < sorted[j].Frac })
	if last := sorted[len(sorted)-1]; last.Frac < 0.999 {
		panic(fmt.Sprintf("workload: CDF %s tops out at %v", name, last.Frac))
	}
	d := &Distribution{Name: name, points: sorted}
	d.mean = d.computeMean()
	return d
}

// Sample draws one flow size in bytes.
func (d *Distribution) Sample(rng *sim.Stream) int {
	u := rng.Float64()
	pts := d.points
	if u <= pts[0].Frac {
		return int(pts[0].Bytes)
	}
	for i := 1; i < len(pts); i++ {
		if u <= pts[i].Frac {
			return int(logInterp(pts[i-1], pts[i], u))
		}
	}
	return int(pts[len(pts)-1].Bytes)
}

// logInterp interpolates size log-linearly between two CDF points.
func logInterp(a, b CDFPoint, u float64) float64 {
	if b.Frac == a.Frac {
		return b.Bytes
	}
	t := (u - a.Frac) / (b.Frac - a.Frac)
	la, lb := math.Log(a.Bytes), math.Log(b.Bytes)
	return math.Exp(la + t*(lb-la))
}

// Mean returns the analytic mean flow size of the CDF.
func (d *Distribution) Mean() float64 { return d.mean }

func (d *Distribution) computeMean() float64 {
	pts := d.points
	mean := pts[0].Bytes * pts[0].Frac
	for i := 1; i < len(pts); i++ {
		p := pts[i].Frac - pts[i-1].Frac
		// Log-space midpoint as the segment's representative size.
		mid := math.Exp((math.Log(pts[i-1].Bytes) + math.Log(pts[i].Bytes)) / 2)
		mean += p * mid
	}
	return mean
}

// The five evaluation workloads (§5.2). CDF shapes follow the publicly
// documented distributions of the cited measurement studies: DCTCP
// (Alizadeh et al., web search), VL2 (Greenberg et al., data mining) and
// Facebook's WEB / CACHE / HADOOP clusters (Roy et al.).
var (
	// DCTCP: web-search RPC mix — medium flows with a multi-MB tail.
	DCTCP = NewDistribution("DCTCP", []CDFPoint{
		{6e3, 0.15}, {13e3, 0.30}, {19e3, 0.40}, {33e3, 0.53},
		{53e3, 0.60}, {133e3, 0.70}, {667e3, 0.80}, {1.3e6, 0.90},
		{6.7e6, 0.95}, {20e6, 0.98}, {30e6, 1.0},
	})
	// VL2: data mining — tiny messages dominate, elephant tail to 1 GB.
	VL2 = NewDistribution("VL2", []CDFPoint{
		{100, 0.10}, {180, 0.20}, {250, 0.30}, {560, 0.40},
		{900, 0.50}, {1.1e3, 0.60}, {2e3, 0.70}, {10e3, 0.80},
		{100e3, 0.90}, {1e6, 0.95}, {10e6, 0.98}, {100e6, 0.99}, {1e9, 1.0},
	})
	// WEB: Facebook front-end web servers.
	WEB = NewDistribution("WEB", []CDFPoint{
		{100, 0.15}, {300, 0.30}, {1e3, 0.45}, {2e3, 0.60},
		{10e3, 0.80}, {100e3, 0.92}, {1e6, 0.98}, {10e6, 1.0},
	})
	// CACHE: Facebook cache followers — small objects plus warm misses.
	CACHE = NewDistribution("CACHE", []CDFPoint{
		{100, 0.10}, {1e3, 0.40}, {2e3, 0.55}, {5e3, 0.70},
		{10e3, 0.80}, {100e3, 0.90}, {1e6, 0.97}, {10e6, 1.0},
	})
	// HADOOP: Facebook Hadoop — shuffle-heavy with a large-transfer tail.
	HADOOP = NewDistribution("HADOOP", []CDFPoint{
		{100, 0.05}, {1e3, 0.30}, {10e3, 0.50}, {100e3, 0.70},
		{1e6, 0.85}, {10e6, 0.95}, {100e6, 0.99}, {1e9, 1.0},
	})
)

// All lists the evaluation distributions in the paper's presentation
// order.
var All = []*Distribution{DCTCP, VL2, CACHE, HADOOP, WEB}

// ByName finds a distribution by (case-sensitive) name.
func ByName(name string) (*Distribution, bool) {
	for _, d := range All {
		if d.Name == name {
			return d, true
		}
	}
	return nil, false
}

// Zipf is a rank-frequency sampler over n ranks with exponent s:
// P(rank=k) ∝ 1/(k+1)^s. It drives the sketch oracle's skewed workloads —
// rank 0 is the heaviest flow. s = 0 degenerates to uniform.
type Zipf struct {
	cum []float64 // cumulative, normalized to cum[n-1] = 1
}

// NewZipf builds the sampler. Panics if n <= 0 or s < 0.
func NewZipf(n int, s float64) *Zipf {
	if n <= 0 {
		panic("workload: Zipf needs at least one rank")
	}
	if s < 0 {
		panic("workload: Zipf exponent must be non-negative")
	}
	cum := make([]float64, n)
	total := 0.0
	for k := 0; k < n; k++ {
		total += 1 / math.Pow(float64(k+1), s)
		cum[k] = total
	}
	for k := range cum {
		cum[k] /= total
	}
	return &Zipf{cum: cum}
}

// Rank draws one rank in [0, n).
func (z *Zipf) Rank(rng *sim.Stream) int {
	u := rng.Float64()
	lo, hi := 0, len(z.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if u <= z.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
