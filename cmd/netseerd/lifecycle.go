package main

import (
	"fmt"
	"os"
	"sync"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

// collectorNode is what netseerd runs: a standalone *collector.Node, a
// fabric *fabric.ShardNode, or nil for the coordinator.
type collectorNode interface {
	Checkpoint() error
	ScrubWAL() (wal.ScrubReport, error)
	Drain(grace time.Duration)
	Healthz() error
}

// lifecycle is netseerd's one way of running a collector, and the
// coordinator. durable is false for an in-memory collector, which has no
// log to checkpoint, scrub or drain into; a zero interval disables its
// ticker.
type lifecycle struct {
	metricsAddr                 string // empty: no metrics server
	durable                     bool
	checkpointEvery, scrubEvery time.Duration
	statsEvery                  time.Duration // -log-stats, in every mode
	drainGrace                  time.Duration
	logf                        func(format string, args ...any)
}

// run serves the metrics, traces and further pages, and c's health, logs
// the registry's snapshot, and checkpoints and scrubs c on their tickers
// until a signal arrives on sig; then it shuts c down gracefully: every accepted frame gets its
// durable ack, then a checkpoint spares the next start the log replay. It
// fails only if the metrics listener does.
func (l lifecycle) run(c collectorNode, reg *obs.Registry, sig <-chan os.Signal, pages ...obs.Page) error {
	if l.metricsAddr != "" {
		osrv, err := obs.ServeHTTP(reg, l.metricsAddr,
			append(pages, obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)})...)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		defer osrv.Close()
		// /healthz answers 503 once the WAL poisons itself — orchestrators
		// see a durability-failed collector without parsing /metrics.
		if c != nil {
			osrv.SetHealth(c.Healthz)
		}
		l.logf("netseerd: metrics on http://%s/metrics, traces on /traces", osrv.Addr())
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	every := func(interval time.Duration, fn func()) {
		if interval <= 0 {
			return
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			t := time.NewTicker(interval)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					fn()
				}
			}
		}()
	}
	if l.durable {
		// Periodic checkpoints bound both restart-replay time and disk
		// usage; a shard refuses one while a rebalance transfer is open on
		// it.
		every(l.checkpointEvery, func() {
			if err := c.Checkpoint(); err != nil {
				l.logf("netseerd: checkpoint: %v", err)
			}
		})
		// Scrubs catch bit rot in sealed segments and snapshots before a
		// restart trips over it; the next replay reports a quarantined file
		// as an explicit gap instead of failing.
		every(l.scrubEvery, func() {
			rep, err := c.ScrubWAL()
			if err != nil {
				l.logf("netseerd: scrub: %v", err)
			}
			for _, q := range rep.Quarantined {
				l.logf("netseerd: WARNING: scrub quarantined %s (CRC failure; bit rot?)", q)
			}
		})
	}
	every(l.statsEvery, func() { l.logf("obs snapshot:\n%s", obs.SnapshotText(reg)) })

	<-sig
	close(done)
	wg.Wait()
	if l.durable {
		l.logf("netseerd: draining ingest (up to %s)", l.drainGrace)
		c.Drain(l.drainGrace)
		if err := c.Checkpoint(); err != nil {
			l.logf("netseerd: final checkpoint: %v", err)
		}
	}
	return nil
}
