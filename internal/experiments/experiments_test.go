package experiments

import (
	"math"
	"testing"
	"time"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/fpelim"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// Short windows keep these integration tests in test-suite budget; the
// full-size runs live behind cmd/repro and the benchmarks.

func smallRun() RunConfig {
	return RunConfig{
		Dist: workload.WEB, Load: 0.6, Window: 2 * sim.Millisecond, Seed: 42,
		SamplerRates: []int{10, 100, 1000},
	}
}

func TestFig9Shape(t *testing.T) {
	r := Fig9EventCoverage(smallRun())
	for _, class := range Fig9Classes {
		if r.TruthCount[class] == 0 {
			t.Fatalf("no ground truth for %s — injection failed", class)
		}
	}
	// The paper's headline shape: NetSeer and NetSight at (or near) full
	// coverage; everything else under 10%.
	for _, class := range Fig9Classes {
		ns := r.Ratio[class]["netseer"]
		switch class {
		case ClassInterSwitch:
			// Random loss can exceed ring recovery slightly; still near full.
			if ns < 0.90 {
				t.Errorf("netseer %s coverage = %.2f, want >= 0.90", class, ns)
			}
		case ClassMMUDrop:
			// The incast burst can exceed the 40 Gb/s MMU-redirect budget
			// (§4's documented capacity bound); near-full is the claim.
			if ns < 0.90 {
				t.Errorf("netseer %s coverage = %.2f, want >= 0.90", class, ns)
			}
		default:
			if ns < 0.999 {
				t.Errorf("netseer %s coverage = %.2f, want full", class, ns)
			}
		}
		for _, sys := range r.Systems {
			if sys == "netseer" || sys == "netsight" {
				continue
			}
			limit := 0.35
			if class == ClassPathChange {
				// Mid-flow re-paths: a sampler/EverFlow only sees a change
				// if it happens to capture a post-flip packet; with the
				// scaled-down flow population 1:10 sampling still catches
				// a fair share (see EXPERIMENTS.md).
				limit = 0.80
			}
			if got := r.Ratio[class][sys]; got > limit {
				t.Errorf("%s %s coverage = %.2f — baselines must be far below NetSeer", sys, class, got)
			}
		}
	}
	// NetSight also (near) full on switch-visible classes.
	for _, class := range Fig9Classes {
		if got := r.Ratio[class]["netsight"]; got < 0.95 {
			t.Errorf("netsight %s coverage = %.2f, want ~full", class, got)
		}
	}
}

func TestFig10Shape(t *testing.T) {
	results := Fig10CongestionCoverage(smallRun(), []*workload.Distribution{workload.WEB, workload.CACHE})
	for _, r := range results {
		if r.TruthCount[ClassCongestion] == 0 {
			t.Fatalf("%s: no congestion ground truth at 60%% load", r.Workload)
		}
		ns := r.Ratio[ClassCongestion]["netseer"]
		nsight := r.Ratio[ClassCongestion]["netsight"]
		if ns < 0.999 || nsight < 0.999 {
			t.Errorf("%s: netseer %.3f netsight %.3f, want full", r.Workload, ns, nsight)
		}
		// Baselines sit well below full coverage. (At the paper's 800 K-flow
		// population they are <10%; the scaled-down run compresses the gap
		// because each flow event spans many congested packets — see
		// EXPERIMENTS.md.)
		for _, sys := range []string{"sampling-1:10", "sampling-1:100", "sampling-1:1000", "pingmesh", "everflow"} {
			if got := r.Ratio[ClassCongestion][sys]; got > 0.75 {
				t.Errorf("%s %s congestion coverage = %.2f, want well below full", r.Workload, sys, got)
			}
		}
		if got := r.Ratio[ClassCongestion]["everflow"]; got > 0.25 {
			t.Errorf("%s everflow congestion coverage = %.2f, want small (watchlist-bounded)", r.Workload, got)
		}
		// Sampling coverage must fall with sparser sampling, strictly from
		// 1:10 to 1:1000.
		s10 := r.Ratio[ClassCongestion]["sampling-1:10"]
		s1000 := r.Ratio[ClassCongestion]["sampling-1:1000"]
		if s1000 >= s10 {
			t.Errorf("%s: 1:1000 (%.3f) not below 1:10 (%.3f)", r.Workload, s1000, s10)
		}
	}
}

func TestFig11Shape(t *testing.T) {
	results := Fig11BandwidthOverhead(smallRun(), []*workload.Distribution{workload.WEB})
	r := results[0]
	ns := r.Overhead["netseer"]
	nsight := r.Overhead["netsight"]
	if ns <= 0 {
		t.Fatal("netseer overhead is zero — export path broken")
	}
	// Headline: NetSeer ≈ 0.01%, NetSight ≈ 18% — three orders of
	// magnitude apart. Allow one order of slack for the scaled-down run.
	if ns > 0.002 {
		t.Errorf("netseer overhead = %.5f, want ~1e-4", ns)
	}
	if nsight < 0.02 {
		t.Errorf("netsight overhead = %.4f, want >= 2%%", nsight)
	}
	if nsight/ns < 100 {
		t.Errorf("netsight/netseer overhead ratio = %.0f, want >= 100×", nsight/ns)
	}
	// Sampling overheads are ordered by rate.
	if r.Overhead["sampling-1:10"] <= r.Overhead["sampling-1:1000"] {
		t.Error("sampling overhead ordering broken")
	}
}

func TestFig13Shape(t *testing.T) {
	r := Fig13PerStep(smallRun())
	if r.Step1Ratio <= 0 || r.Step1Ratio > 0.10 {
		t.Errorf("step 1 event ratio = %.4f, want (0, 0.10] — §5.2 says <10%%", r.Step1Ratio)
	}
	if r.Step2Reduction < 0.5 {
		t.Errorf("step 2 dedup reduction = %.2f, want substantial (paper ~95%%)", r.Step2Reduction)
	}
	if r.Step3Reduction < 0.9 {
		t.Errorf("step 3 extraction reduction = %.2f, want ~97-98%%", r.Step3Reduction)
	}
	if r.Step4Reduction > 0.2 {
		t.Errorf("step 4 FP share = %.2f, want small (<7%% in paper)", r.Step4Reduction)
	}
	if r.OverallRatio > 0.001 {
		t.Errorf("overall overhead = %.6f, want ~1e-4", r.OverallRatio)
	}
	if r.TotalEventRatio > 0.10 {
		t.Errorf("total event packet ratio %.4f exceeds 10%%", r.TotalEventRatio)
	}
}

func TestFig12Shape(t *testing.T) {
	points := Fig12Batching([]int{1, 10, 50, 70})
	if len(points) != 4 {
		t.Fatal("wrong point count")
	}
	if !(points[0].Meps < points[1].Meps && points[1].Meps < points[2].Meps) {
		t.Errorf("throughput not rising with batch size: %+v", points)
	}
	// Saturation by 50: 70 gains < 10%.
	if (points[3].Meps-points[2].Meps)/points[2].Meps > 0.10 {
		t.Errorf("no saturation between 50 and 70: %+v", points[2:])
	}
	// Tens of Meps at batch 50 (paper: ~86 Meps, 17.7 Gb/s).
	if points[2].Meps < 20 || points[2].Meps > 500 {
		t.Errorf("batch-50 capacity %.1f Meps implausible", points[2].Meps)
	}
	if points[2].Gbps < 5 {
		t.Errorf("batch-50 capacity %.1f Gbps implausible", points[2].Gbps)
	}
}

func TestFig14aScalesWithCores(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	points := Fig14aPCIe([]int{50}, []int{1, 2}, 50*time.Millisecond)
	if len(points) != 2 {
		t.Fatal("wrong point count")
	}
	// n cores decode n times one core's measured rate, up to the PCIe
	// bus; a fast host reaches the cap with one core, so the check is on
	// the model, not on a fixed speed-up.
	one, two := points[0].Meps, points[1].Meps
	want := min(2*one, PCIeBusBps/(fevent.RecordLen*8)/1e6)
	if one <= 0 || math.Abs(two-want) > 1e-9*want {
		t.Errorf("1 core %.3f Meps, 2 cores %.3f Meps, want %.3f", one, two, want)
	}
}

// bestOf3 measures three times and keeps each point's best rate. The
// Fig. 14 points are single 50–80 ms wall-clock windows: a host stall
// costs a point one window, a real inversion costs it all three.
func bestOf3(measure func() []float64) []float64 {
	best := measure()
	for i := 0; i < 2; i++ {
		for j, v := range measure() {
			best[j] = max(best[j], v)
		}
	}
	return best
}

func TestFig14aSmallBatchesSlower(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	meps := bestOf3(func() []float64 {
		points := Fig14aPCIe([]int{1, 50}, []int{1}, 50*time.Millisecond)
		return []float64{points[0].Meps, points[1].Meps}
	})
	if meps[0] >= meps[1] {
		t.Errorf("batch 1 (%.1f Meps) not below batch 50 (%.1f)", meps[0], meps[1])
	}
}

func TestFig14bFlowScalingAndHashOffload(t *testing.T) {
	if testing.Short() {
		t.Skip("wall-clock measurement")
	}
	meps := bestOf3(func() []float64 {
		pre := Fig14bCPU([]int{1 << 10, 1 << 20}, 2, fpelim.PreHashed, 80*time.Millisecond)
		cpu := Fig14bCPU([]int{1 << 10}, 2, fpelim.HashOnCPU, 80*time.Millisecond)
		return []float64{pre[0].Meps, pre[1].Meps, cpu[0].Meps}
	})
	if meps[0] <= meps[1] {
		t.Errorf("1K flows (%.1f Meps) not faster than 1M flows (%.1f)", meps[0], meps[1])
	}
	if ratio := meps[0] / meps[2]; ratio < 1.5 {
		t.Errorf("pre-hash speedup = %.2f×, paper says ~2.5×", ratio)
	}
}

func TestFig15aShape(t *testing.T) {
	points := Fig15aRingSizing([]int{256, 1024})
	if len(points) != 2 {
		t.Fatal("wrong point count")
	}
	small, big := points[0], points[1]
	if small.MinSlots <= big.MinSlots {
		t.Errorf("smaller packets need more slots: %d (256B) vs %d (1024B)", small.MinSlots, big.MinSlots)
	}
	// Paper: ≥25 slots for 1024 B packets. Allow a band around it.
	if big.MinSlots < 10 || big.MinSlots > 120 {
		t.Errorf("1024B min slots = %d, want near the paper's ~25", big.MinSlots)
	}
}

func TestFig15bHeadline(t *testing.T) {
	points := Fig15bSRAM([]int{1000}, []int{1024}, 64)
	got := points[0].SRAMBytes
	// Paper: ~800 KB for 1,000 consecutive 1,024 B drops on 64 ports.
	if got < 600<<10 || got > 1100<<10 {
		t.Errorf("SRAM = %d KB, want ≈800 KB", got>>10)
	}
}

func TestFig8aAllCasesLocated(t *testing.T) {
	results := Fig8aCaseStudies(7)
	if len(results) != 5 {
		t.Fatal("want 5 cases")
	}
	for _, r := range results {
		if !r.Located {
			t.Errorf("case #%d (%s) not located: %s", r.ID, r.Name, r.Evidence)
		}
		// Event availability is sub-second in every case — the basis for
		// the paper's 61–99% reduction.
		if r.DetectLatency > sim.Second {
			t.Errorf("case #%d detect latency %v too slow", r.ID, r.DetectLatency)
		}
	}
}

func TestFig8bShape(t *testing.T) {
	r := Fig8bSLA(SLAConfig{Seed: 3})
	if r.SlowRPCs < 20 {
		t.Fatalf("only %d slow RPCs — fault injection too weak", r.SlowRPCs)
	}
	h := r.Explained["host"]
	hp := r.Explained["host+pingmesh"]
	hn := r.Explained["host+netseer"]
	if !(h <= hp+1e-9 && hp < hn) {
		t.Errorf("explained fractions not ordered: host %.2f, +pingmesh %.2f, +netseer %.2f", h, hp, hn)
	}
	if hn < 0.95 {
		t.Errorf("host+netseer explains %.2f, want >= 0.95 (paper: 97%%)", hn)
	}
	if h > 0.75 {
		t.Errorf("host alone explains %.2f — too strong, should miss short stalls and net faults", h)
	}
}

func TestTablesRender(t *testing.T) {
	r := Fig9EventCoverage(smallRun())
	if Fig9Table(r).String() == "" {
		t.Error("empty Fig9 table")
	}
	points := Fig12Batching([]int{1, 50})
	if Fig12Table(points).String() == "" {
		t.Error("empty Fig12 table")
	}
	a, b := Fig15Tables(
		[]RingSizingPoint{{PacketSize: 1024, MinSlots: 25, AnalyticSlots: 49}},
		Fig15bSRAM([]int{1000}, []int{1024}, 64))
	if a.String() == "" || b.String() == "" {
		t.Error("empty Fig15 tables")
	}
}

// TestGroundTruthIsPerFlowEvent pins the ledger's shape on the testbed
// config (WEB 0.70, every injection): one entry per distinct flow event,
// which the four accessors partition; entries whose packet counts sum to
// the per-type totals; and, at 20 ms, entries under a tenth of the
// packets noted — the ledger grows with flow events, not packets.
func TestGroundTruthIsPerFlowEvent(t *testing.T) {
	for _, window := range []sim.Time{2 * sim.Millisecond, 20 * sim.Millisecond} {
		tb := NewTestbed(RunConfig{
			Dist: workload.WEB, Load: 0.70, Window: window, Seed: 1, NetSeer: true,
			InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
		})
		tb.Run()
		g := tb.GT
		keys := make(map[dataplane.FlowEventKey]bool)
		var perType [len(g.TypePackets)]int
		for _, e := range g.Events {
			keys[e.Key] = true
			perType[e.Key.Type] += e.Packets
		}
		if len(keys) != len(g.Events) {
			t.Errorf("%v: %d entries for %d distinct flow events", window, len(g.Events), len(keys))
		}
		accessors := len(g.DropFlowEvents(nil)) + len(g.CongestionFlowEvents()) +
			len(g.PathChangeFlowEvents(false)) + len(g.PauseFlowEvents())
		if accessors != len(keys) {
			t.Errorf("%v: the accessors return %d flow events, the ledger holds %d", window, accessors, len(keys))
		}
		if perType != g.TypePackets {
			t.Errorf("%v: entries sum to %v packets per type, totals are %v", window, perType, g.TypePackets)
		}
		packets := 0
		for _, n := range g.TypePackets {
			packets += n
		}
		t.Logf("%v: %d entries for %d packets", window, len(g.Events), packets)
		if window == 20*sim.Millisecond && len(g.Events)*10 >= packets {
			t.Errorf("%v: %d entries for %d packets, want < 10 %%", window, len(g.Events), packets)
		}
	}
}
