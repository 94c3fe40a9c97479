// Package incidents embeds the production NPA statistics of the paper's
// Figures 1 and 3 — the drop-type mix, recovery-time and
// fault-location-time distributions Alibaba measured over O(100) real
// service tickets — and uses them to *parameterize* reproduction
// scenarios. The statistics themselves cannot be re-measured from a
// testbed (they are two years of production tickets); what can be
// reproduced is the consequence the paper draws from them: every
// incident class maps to an injectable fault whose NetSeer evidence is
// then measured (see experiments.ExtIncidentMonteCarlo).
package incidents

import (
	"fmt"

	"netseer/internal/sim"
)

// DropClass is a Figure 3 packet-drop category.
type DropClass int

// Figure 3 drop classes.
const (
	PipelineDrop DropClass = iota
	MMUCongestion
	InterSwitchDrop
	InterCardDrop
	ASICFailure
	MMUFailure
	numClasses
)

// String names the class.
func (c DropClass) String() string {
	switch c {
	case PipelineDrop:
		return "pipeline drop"
	case MMUCongestion:
		return "MMU congestion"
	case InterSwitchDrop:
		return "inter-switch drop"
	case InterCardDrop:
		return "inter-card drop"
	case ASICFailure:
		return "ASIC failure"
	case MMUFailure:
		return "MMU failure"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists all Figure 3 classes.
var Classes = []DropClass{PipelineDrop, MMUCongestion, InterSwitchDrop, InterCardDrop, ASICFailure, MMUFailure}

// dropMix is Figure 3's fractions of NPAs caused by each drop class
// ("pipeline drops cause more than 60% NPAs. Congestion drop takes about
// 10% … inter-switch and inter-card drops together occupy 18% … about
// 10% by malfunctioning hardware").
var dropMix = map[DropClass]float64{
	PipelineDrop:    0.62,
	MMUCongestion:   0.10,
	InterSwitchDrop: 0.12,
	InterCardDrop:   0.06,
	ASICFailure:     0.06,
	MMUFailure:      0.04,
}

// meanLocationMinutes is the Figure 3 breakdown of fault-location time
// without NetSeer: inter-switch/card average ~161 minutes ("longer than
// the others"); half of >180-minute cases are inter-switch/card.
var meanLocationMinutes = map[DropClass]float64{
	PipelineDrop:    55,
	MMUCongestion:   40,
	InterSwitchDrop: 161,
	InterCardDrop:   161,
	ASICFailure:     90,
	MMUFailure:      120,
}

// SampleDropClass draws one incident class from the Figure 3 mix.
func SampleDropClass(rng *sim.Stream) DropClass {
	u := rng.Float64()
	acc := 0.0
	for _, c := range Classes {
		acc += dropMix[c]
		if u < acc {
			return c
		}
	}
	return MMUFailure
}

// MeanLocationMinutes returns the paper's reported mean fault-location
// time without NetSeer for a class.
func MeanLocationMinutes(c DropClass) float64 { return meanLocationMinutes[c] }

// RecoveryTime samples a total NPA recovery time without NetSeer from the
// Figure 1(a) distribution shape: about half of NPAs take >10 minutes,
// with a tail past 12 hours, and ~90% of the time is cause location. A
// log-normal-ish draw via exponential mixture reproduces the shape.
func RecoveryTime(rng *sim.Stream) (total, location sim.Time) {
	// 50%: minutes-scale; 40%: tens of minutes to hours; 10%: many hours.
	u := rng.Float64()
	var minutes float64
	switch {
	case u < 0.5:
		minutes = 1 + rng.Exp(6)
	case u < 0.9:
		minutes = 10 + rng.Exp(50)
	default:
		minutes = 120 + rng.Exp(200)
	}
	if minutes > 760 { // the paper's observed max ≈ 12.7 hours
		minutes = 760
	}
	total = sim.Time(minutes * float64(sim.Second) * 60)
	location = sim.Time(float64(total) * 0.9)
	return total, location
}

// RecoveryCDF samples n recovery times and returns the Figure 1(a)-style
// rows: fraction of NPAs recovered within each horizon, and the share of
// time spent on cause location.
func RecoveryCDF(n int, seed uint64) (within10min, within1h, within12h, locationShare float64) {
	rng := sim.NewStream(seed, "recovery-cdf")
	var c10, c60, c720 int
	var locSum, totSum float64
	for i := 0; i < n; i++ {
		total, location := RecoveryTime(rng)
		minutes := total.Seconds() / 60
		if minutes <= 10 {
			c10++
		}
		if minutes <= 60 {
			c60++
		}
		if minutes <= 720 {
			c720++
		}
		locSum += location.Seconds()
		totSum += total.Seconds()
	}
	return float64(c10) / float64(n), float64(c60) / float64(n),
		float64(c720) / float64(n), locSum / totSum
}
