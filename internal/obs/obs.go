// Package obs is NetSeer's self-telemetry layer: the monitor that promises
// never to silently lose or distort a flow event (§3.4–§3.6) must be able
// to prove the same about itself while traffic flows. The package provides
// a lock-free instrument set — atomic counters, high-water marks and
// fixed-bucket histograms — plus a registry that renders every declared
// family (names.go) in the Prometheus text exposition format, an HTTP
// server exposing /metrics, /healthz and net/http/pprof, and a periodic
// snapshot logger.
//
// Two usage patterns, chosen by who owns the data:
//
//   - Concurrent stages (collector client/server, store, query server)
//     embed the atomic instruments directly and mutate them in place; a
//     scrape reads them at any time without coordination.
//   - Single-owner hot-path stages (the simulated data plane: group cache,
//     CEBP batcher, FP elimination) keep their existing plain counters —
//     their per-op budgets (~16 ns, 0 allocs/op, pinned by AllocsPerRun
//     tests) leave no room for a LOCK-prefixed add per event — and the
//     owning goroutine periodically publishes one snapshot value (a
//     summed core.Stats) behind an atomic pointer that Func series
//     read. A scrape then reads the last published snapshot, never the
//     live single-owner memory.
//
// Every instrument method is allocation-free, so instrumented code keeps
// its zero-alloc steady state.
package obs

import "sync/atomic"

// Counter is a lock-free monotonically increasing counter. The zero value
// is ready to use, so it can be embedded in any stage struct without
// constructor churn.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// MaxGauge tracks a high-water mark with a lock-free CAS loop. The zero
// value is ready to use and reads 0 until the first Observe.
type MaxGauge struct{ v atomic.Int64 }

// Observe raises the mark to n if n exceeds it.
func (m *MaxGauge) Observe(n int64) {
	for {
		cur := m.v.Load()
		if n <= cur || m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the high-water mark.
func (m *MaxGauge) Load() int64 { return m.v.Load() }
