package incidents

import (
	"testing"

	"netseer/internal/sim"
)

func TestDropMixSumsToOne(t *testing.T) {
	sum := 0.0
	for _, c := range Classes {
		f := dropMix[c]
		if f <= 0 || f > 1 {
			t.Errorf("%v mix = %v", c, f)
		}
		sum += f
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("drop mix sums to %v", sum)
	}
}

func TestSampleDropClassMatchesMix(t *testing.T) {
	rng := sim.NewStream(1, "mix")
	counts := make(map[DropClass]int)
	const n = 200000
	for i := 0; i < n; i++ {
		counts[SampleDropClass(rng)]++
	}
	for _, c := range Classes {
		got := float64(counts[c]) / n
		want := dropMix[c]
		if got < want-0.01 || got > want+0.01 {
			t.Errorf("%v: sampled %.3f, mix %.3f", c, got, want)
		}
	}
}

func TestCoverageBoundary(t *testing.T) {
	// Fig. 4: NetSeer covers everything but malfunctioning hardware, ~90 %
	// of the mix ("full event coverage under most (~90%) situations").
	covered := 0.0
	for _, c := range Classes {
		if c != ASICFailure && c != MMUFailure {
			covered += dropMix[c]
		}
	}
	if covered < 0.85 || covered > 0.95 {
		t.Errorf("covered mix = %.2f, want ~0.90", covered)
	}
}

func TestInterSwitchLocationWorst(t *testing.T) {
	// Fig. 3's point: inter-switch/card drops take longest to locate.
	for _, c := range []DropClass{PipelineDrop, MMUCongestion, ASICFailure, MMUFailure} {
		if MeanLocationMinutes(c) >= MeanLocationMinutes(InterSwitchDrop) {
			t.Errorf("%v location time %.0f >= inter-switch %.0f", c,
				MeanLocationMinutes(c), MeanLocationMinutes(InterSwitchDrop))
		}
	}
}

func TestRecoveryTimeShape(t *testing.T) {
	rng := sim.NewStream(3, "rec")
	over10min := 0
	maxSeen := sim.Time(0)
	const n = 50000
	for i := 0; i < n; i++ {
		total, location := RecoveryTime(rng)
		if total <= 0 || location <= 0 || location > total {
			t.Fatalf("bad sample: total %v location %v", total, location)
		}
		if total > 10*60*sim.Second {
			over10min++
		}
		if total > maxSeen {
			maxSeen = total
		}
	}
	frac := float64(over10min) / n
	// Fig. 1(a): about half of NPAs took more than 10 minutes.
	if frac < 0.35 || frac > 0.65 {
		t.Errorf("fraction over 10 min = %.2f, want ~0.5", frac)
	}
	// Longest observed ≈ 12+ hours, never absurdly beyond.
	if maxSeen < 5*3600*sim.Second || maxSeen > 13*3600*sim.Second {
		t.Errorf("max recovery %v, want ~12h tail", maxSeen)
	}
}

func TestStringNames(t *testing.T) {
	for _, c := range Classes {
		if c.String() == "" {
			t.Error("empty class name")
		}
	}
	if DropClass(99).String() != "class(99)" {
		t.Error("unknown names")
	}
}

func TestRecoveryCDF(t *testing.T) {
	w10, w60, w720, loc := RecoveryCDF(20000, 4)
	if !(w10 < w60 && w60 < w720) {
		t.Errorf("CDF not monotone: %v %v %v", w10, w60, w720)
	}
	// Fig. 1(a): about half recover within 10 minutes; nearly all within
	// 12 hours; cause location dominates (~90%).
	if w10 < 0.35 || w10 > 0.65 {
		t.Errorf("within 10 min = %.2f, want ~0.5", w10)
	}
	if w720 < 0.98 {
		t.Errorf("within 12 h = %.2f, want ~1", w720)
	}
	if loc < 0.85 || loc > 0.95 {
		t.Errorf("location share = %.2f, want ~0.9", loc)
	}
}
