package experiments

import (
	"fmt"

	"netseer/internal/fevent"
	"netseer/internal/metrics"
	"netseer/internal/workload"
)

// This file regenerates Fig. 13: (a) the event-packet ratio per workload
// and event type, and (b) the per-step volume reduction of NetSeer's
// pipeline.

// StepResult holds the Fig. 13 accounting for one workload.
type StepResult struct {
	Workload string

	// Fig. 13(a): event packets per type as a fraction of all packets.
	EventPacketRatio map[fevent.Type]float64
	TotalEventRatio  float64

	// Fig. 13(b): per-step volume reductions.
	Step1Ratio     float64 // event bytes / raw bytes (selection keeps <10%)
	Step2Reduction float64 // dedup: 1 - dedup bytes / event bytes (~95%)
	Step3Reduction float64 // extraction: 1 - extracted / dedup bytes (~98%)
	Step4Reduction float64 // FP elimination: suppressed / CPU input (<7%)
	OverallRatio   float64 // exported bytes / raw bytes (<0.01%)
}

// Fig13PerStep runs one workload with NetSeer and derives both panels.
func Fig13PerStep(cfg RunConfig) *StepResult {
	cfg.NetSeer = true
	cfg.InjectLinkLoss = true
	cfg.InjectPipelineBug = true
	tb := NewTestbed(cfg)
	tb.Run()

	st := tb.NetSeerStats()
	res := &StepResult{
		Workload:         tb.Cfg.Dist.Name,
		EventPacketRatio: make(map[fevent.Type]float64),
	}
	raw := float64(st.RawPackets)
	if raw > 0 {
		// Per-type event-packet counts from ground truth.
		for _, t := range []fevent.Type{fevent.TypeDrop, fevent.TypeCongestion, fevent.TypePathChange, fevent.TypePause} {
			res.EventPacketRatio[t] = float64(tb.GT.TypePackets[t]) / raw
		}
		res.TotalEventRatio = float64(st.EventPackets) / raw
	}
	if st.RawBytes > 0 {
		res.Step1Ratio = float64(st.EventBytes) / float64(st.RawBytes)
		res.OverallRatio = float64(st.ExportedBytes) / float64(st.RawBytes)
	}
	if st.EventBytes > 0 {
		res.Step2Reduction = 1 - float64(st.DedupBytes)/float64(st.EventBytes)
	}
	if st.DedupBytes > 0 {
		res.Step3Reduction = 1 - float64(st.ExtractedBytes)/float64(st.DedupBytes)
	}
	cpuIn := st.ExportedEvents + st.SuppressedFPs
	if cpuIn > 0 {
		res.Step4Reduction = float64(st.SuppressedFPs) / float64(cpuIn)
	}
	return res
}

// Fig13Tables renders both panels for a set of workloads.
func Fig13Tables(results []*StepResult) (a, b *metrics.Table) {
	a = metrics.NewTable("Fig 13(a): event packet ratio",
		"workload", "drop", "congestion", "path change", "pause", "total")
	for _, r := range results {
		a.AddRow(r.Workload,
			fmt.Sprintf("%.2f%%", r.EventPacketRatio[fevent.TypeDrop]*100),
			fmt.Sprintf("%.2f%%", r.EventPacketRatio[fevent.TypeCongestion]*100),
			fmt.Sprintf("%.2f%%", r.EventPacketRatio[fevent.TypePathChange]*100),
			fmt.Sprintf("%.2f%%", r.EventPacketRatio[fevent.TypePause]*100),
			fmt.Sprintf("%.2f%%", r.TotalEventRatio*100),
		)
	}
	b = metrics.NewTable("Fig 13(b): per-step volume reduction",
		"workload", "step1 keep", "step2 dedup", "step3 extract", "step4 FP-elim", "overall")
	for _, r := range results {
		b.AddRow(r.Workload,
			fmt.Sprintf("%.2f%%", r.Step1Ratio*100),
			fmt.Sprintf("-%.1f%%", r.Step2Reduction*100),
			fmt.Sprintf("-%.1f%%", r.Step3Reduction*100),
			fmt.Sprintf("-%.1f%%", r.Step4Reduction*100),
			fmt.Sprintf("%.5f%%", r.OverallRatio*100),
		)
	}
	return a, b
}

// Fig13AllWorkloads runs the per-step accounting over every distribution.
func Fig13AllWorkloads(base RunConfig, dists []*workload.Distribution) []*StepResult {
	return parallelMap(len(dists), func(i int) *StepResult {
		cfg := base
		cfg.Dist = dists[i]
		return Fig13PerStep(cfg)
	})
}
