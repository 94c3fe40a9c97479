package experiments

import (
	"sync/atomic"

	"netseer/internal/core"
	"netseer/internal/fevent"
	"netseer/internal/obs"
)

// published is what one publish point saw: the testbed's summed switch
// accounting and the occupancy scans, which are too slow for every read.
type published struct {
	core.Stats
	groupOcc, cmsOcc, topkOcc int
}

// RegisterObs exposes the testbed's switch-side pipeline telemetry on r
// and returns the publish function the simulation owner must call to
// refresh it (at checkpoints during a run and once after it). The stages
// keep plain single-owner counters — an atomic RMW on a ~16 ns pinned
// path would blow the performance budget — so publish stores one summed
// core.Stats and every series reads that value, never owner memory (see
// internal/obs). The detection→CPU latency histogram needs no publishing:
// it is atomic on the (non-pinned) batch-arrival path, so the registry
// merges the per-switch histograms live at scrape time.
func (tb *Testbed) RegisterObs(r *obs.Registry) (publish func()) {
	var last atomic.Pointer[published]
	last.Store(&published{})
	counter := func(name string, v func(*published) uint64, labels ...obs.Label) {
		r.Func(name, func() float64 { return float64(v(last.Load())) }, labels...)
	}
	gauge := func(name string, v func(*published) int) {
		r.Func(name, func() float64 { return float64(v(last.Load())) })
	}

	for _, t := range fevent.Types {
		counter(obs.MDetectEvents, func(p *published) uint64 { return p.Detections[t] }, obs.L("type", t.String()))
	}
	for c := fevent.DropNone; c <= fevent.DropCorruption; c++ {
		counter(obs.MDetectDrops, func(p *published) uint64 { return p.Drops[c] }, obs.L("code", c.String()))
	}
	counter(obs.MDetectLost, func(p *published) uint64 { return p.LostMMURedirect }, obs.L("reason", "mmu-redirect"))
	counter(obs.MDetectLost, func(p *published) uint64 { return p.LostInternalPort }, obs.L("reason", "internal-port"))
	counter(obs.MDetectLost, func(p *published) uint64 { return p.LostRingOverwrite }, obs.L("reason", "ring-overwrite"))
	counter(obs.MDetectLost, func(p *published) uint64 { return p.LostStackOverflow }, obs.L("reason", "stack-overflow"))

	counter(obs.MGroupIngested, func(p *published) uint64 { return p.GroupIngested })
	counter(obs.MGroupReports, func(p *published) uint64 { return p.GroupReported })
	counter(obs.MGroupMerged, func(p *published) uint64 { return p.GroupMerged })
	counter(obs.MGroupEvictions, func(p *published) uint64 { return p.GroupEvictions })
	counter(obs.MGroupRereports, func(p *published) uint64 { return p.GroupRereports })
	gauge(obs.MGroupOccupancy, func(p *published) int { return p.groupOcc })

	counter(obs.MBatchPushed, func(p *published) uint64 { return p.BatchPushed })
	counter(obs.MBatchOverflow, func(p *published) uint64 { return p.LostStackOverflow })
	counter(obs.MBatchFlushes, func(p *published) uint64 { return p.BatchFlushes })
	counter(obs.MBatchDelivered, func(p *published) uint64 { return p.BatchDelivered })
	counter(obs.MBatchPasses, func(p *published) uint64 { return p.BatchPasses })
	counter(obs.MBatchPops, func(p *published) uint64 { return p.BatchPops })
	gauge(obs.MBatchStackHW, func(p *published) int { return int(p.BatchStackHW) })

	counter(obs.MElimSeen, func(p *published) uint64 { return p.ElimSeen })
	counter(obs.MElimSuppressed, func(p *published) uint64 { return p.SuppressedFPs })
	counter(obs.MElimForwarded, func(p *published) uint64 { return p.ElimForwarded })
	counter(obs.MPacerSent, func(p *published) uint64 { return p.ExportedBatches })
	counter(obs.MPacerDelayed, func(p *published) uint64 { return p.PacerDelayed })

	// The occupancy gauges show how full the fixed CMS/space-saving
	// structures run.
	counter(obs.MSketchPkts, func(p *published) uint64 { return p.Sketch.Pkts })
	counter(obs.MSketchHHOnsets, func(p *published) uint64 { return p.Sketch.HHEvents })
	counter(obs.MSketchChurn, func(p *published) uint64 { return p.Sketch.Churn })
	counter(obs.MSketchSnapshots, func(p *published) uint64 { return p.Sketch.Snapshots })
	counter(obs.MSketchSpikes, func(p *published) uint64 { return p.Sketch.Spikes })
	counter(obs.MSketchWindowRolls, func(p *published) uint64 { return p.Sketch.WindowRolls })
	counter(obs.MSketchSeenEvict, func(p *published) uint64 { return p.Sketch.SeenEvict })
	gauge(obs.MSketchCMSOccupancy, func(p *published) int { return p.cmsOcc })
	gauge(obs.MSketchTopKOccupancy, func(p *published) int { return p.topkOcc })

	// The testbed's local store receives batches in-process, so its events
	// keep their per-event detection stamps and the detection→store
	// histogram carries real intra-batch staleness here — unlike a remote
	// netseerd, where the 24 B wire record coarsens event stamps to the
	// batch stamp (see collector.Store).
	tb.Store.RegisterMetrics(r)

	r.HistogramFunc(obs.MDetectToCPU, func() obs.HistogramSnapshot {
		merged := obs.HistogramSnapshot{}
		for _, ns := range tb.NetSeers {
			s := ns.DetectToCPULatency().Snapshot()
			if merged.Bounds == nil {
				merged = s
			} else {
				merged.Merge(s)
			}
		}
		if merged.Bounds == nil {
			merged = obs.HistogramSnapshot{
				Bounds: obs.LatencyBuckets(),
				Counts: make([]uint64, len(obs.LatencyBuckets())+1),
			}
		}
		return merged
	})

	// Must run on the goroutine driving the simulation (the counters'
	// owner).
	return func() {
		p := &published{Stats: core.Sum(tb.NetSeers)}
		for _, ns := range tb.NetSeers {
			g, c, k := ns.Occupancy()
			p.groupOcc += g
			p.cmsOcc += c
			p.topkOcc += k
		}
		last.Store(p)
	}
}
