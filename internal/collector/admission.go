package collector

import (
	"sync/atomic"

	"netseer/internal/obs"
)

// Admission control for the ingest server: a bounded memory budget with
// a two-rung watermark ladder. Crossing the slow watermark delays acks —
// the exporter's in-flight window (PR 1) fills and the switch CPU slows
// down instead of the collector growing without bound. Crossing the shed
// watermark stops queryable indexing entirely: frames are still WAL-ed
// (durability and acks are unaffected) but their events are not indexed
// in memory; the next restart's replay re-indexes them. Shedding
// therefore trades freshness of queryability for survival, never data.
// Both transitions release with hysteresis so a store hovering at a
// threshold does not flap.

// admitState is the ladder rung the server currently sits on.
type admitState int32

const (
	admitOK   admitState = iota // under the slow watermark
	admitSlow                   // delaying acks (backpressure)
	admitShed                   // WAL-only, indexing shed
)

// String names the state for logs and the obs gauge help text.
func (s admitState) String() string {
	switch s {
	case admitOK:
		return "ok"
	case admitSlow:
		return "slow"
	case admitShed:
		return "shed"
	}
	return "?"
}

// admitFailedState is the ladder's terminal rung, above shed: the WAL
// has poisoned itself, no ack promise can be kept, and the server stops
// accepting ingest. It is server-level state (see Server.failDurability)
// rather than an admission watermark — memory pressure recovers,
// a poisoned log does not.
const admitFailedState = "durability-failed"

// slowWatermark and shedWatermark are the rungs' thresholds as fractions
// of the memory budget. Above slow, acks are delayed by ackSlowdown so the
// exporter's in-flight window backpressures; above shed (WAL servers
// only), frames are logged but not indexed.
const (
	slowWatermark = 0.7
	shedWatermark = 0.9
)

// admitHysteresis is the release factor: a rung entered at threshold T
// is left at T*admitHysteresis.
const admitHysteresis = 0.9

// admission is the watermark state machine. update is called with the
// store's memory estimate on every ingested frame; state reads are
// lock-free for the acker goroutines and the metrics scrape.
type admission struct {
	slowAt, shedAt     int64 // rung thresholds in bytes
	slowExit, shedExit int64 // hysteresis release points
	canShed            bool  // only a WAL-backed server may shed safely

	state atomic.Int32

	ackDelays              obs.Counter
	shedBatches, shedEvent obs.Counter
	transitions            obs.Counter
}

// newAdmission builds the controller. budget <= 0 disables admission
// control (update always answers admitOK). canShed is false for
// in-memory servers: without a WAL, shedding would drop acked events, so
// the ladder is clamped at slow.
func newAdmission(budget int64, canShed bool) *admission {
	if budget <= 0 {
		return nil
	}
	a := &admission{
		slowAt:  int64(float64(budget) * slowWatermark),
		shedAt:  int64(float64(budget) * shedWatermark),
		canShed: canShed,
	}
	a.slowExit = int64(float64(a.slowAt) * admitHysteresis)
	a.shedExit = int64(float64(a.shedAt) * admitHysteresis)
	return a
}

// current returns the rung without updating it.
func (a *admission) current() admitState {
	if a == nil {
		return admitOK
	}
	return admitState(a.state.Load())
}

// update advances the ladder for the given memory estimate and returns
// the rung to apply to the current frame.
func (a *admission) update(bytes int64) admitState {
	if a == nil {
		return admitOK
	}
	cur := admitState(a.state.Load())
	next := cur
	switch cur {
	case admitOK:
		if bytes >= a.shedAt && a.canShed {
			next = admitShed
		} else if bytes >= a.slowAt {
			next = admitSlow
		}
	case admitSlow:
		if bytes >= a.shedAt && a.canShed {
			next = admitShed
		} else if bytes < a.slowExit {
			next = admitOK
		}
	case admitShed:
		if bytes < a.shedExit {
			next = admitSlow
			if bytes < a.slowExit {
				next = admitOK
			}
		}
	}
	if next != cur {
		a.state.Store(int32(next))
		a.transitions.Inc()
	}
	return next
}

// registerMetrics exposes the ladder on r.
func (a *admission) registerMetrics(r *obs.Registry, labels ...obs.Label) {
	if a == nil {
		return
	}
	r.Func(obs.MAdmitState, func() float64 {
		return float64(a.state.Load())
	}, labels...)
	r.RegisterCounter(obs.MAdmitTransitions, &a.transitions, labels...)
	r.RegisterCounter(obs.MAdmitAckDelays, &a.ackDelays, labels...)
	r.RegisterCounter(obs.MAdmitShedBatches, &a.shedBatches, labels...)
	r.RegisterCounter(obs.MAdmitShedEvents, &a.shedEvent, labels...)
}
