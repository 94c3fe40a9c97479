package obs

import (
	"runtime"
	"time"
)

// RegisterRuntime exposes the Go runtime's own health signals — the
// telemetry layer monitoring the process that hosts it. Names follow the
// Prometheus Go-client conventions so standard dashboards apply.
func RegisterRuntime(r *Registry) {
	start := time.Now()
	r.Func(MGoroutines, func() float64 { return float64(runtime.NumGoroutine()) })
	r.Func(MHeapAllocBytes, func() float64 { return float64(readMemStats().HeapAlloc) })
	r.Func(MAllocBytes, func() float64 { return float64(readMemStats().TotalAlloc) })
	r.Func(MGCCycles, func() float64 { return float64(readMemStats().NumGC) })
	r.Func(MUptime, func() float64 { return time.Since(start).Seconds() })
}

func readMemStats() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}
