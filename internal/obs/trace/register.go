package trace

import "netseer/internal/obs"

// RegisterMetrics exposes the recorder's own health on r: spans recorded
// and spans dropped to lapped ring writers. Both are scrape-time reads
// of atomics, never of owner memory, so any daemon can register its
// Default recorder unconditionally.
func RegisterMetrics(r *obs.Registry, rec *Recorder) {
	r.Func(obs.MTraceSpans, func() float64 { return float64(rec.Recorded()) })
	r.Func(obs.MTraceSpansDropped, func() float64 { return float64(rec.Dropped()) })
}
