package baselines

import (
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// EverFlow mirrors "match-and-mirror" packets — the first packet of every
// flow (the SYN analogue) — and runs on-demand packet telemetry over a
// rotating watchlist of 1,000 random flows re-chosen every minute (§5
// testbed configuration). Events are only visible for watched flows while
// they are watched, which is why its coverage is <1%.
type synKey struct {
	sw   uint16
	flow pkt.FlowKey
}

type EverFlow struct {
	dataplane.NopMonitor
	sim     *sim.Simulator
	congThr sim.Time

	// WatchSize and Rotation configure the on-demand telemetry.
	WatchSize int
	Rotation  sim.Time

	seenFlows   map[pkt.FlowKey]bool // flows whose "SYN" was mirrored
	synMirrored map[synKey]bool      // per-switch first-packet observations
	watched     map[pkt.FlowKey]bool
	candidate   []pkt.FlowKey
	rng         *sim.Stream

	detected Detections
	overhead uint64
	stopped  bool
}

// NewEverFlow creates the EverFlow baseline on the given simulator.
// rotation <= 0 uses the paper's one-minute watchlist refresh.
func NewEverFlow(s *sim.Simulator, congThr sim.Time, rotation sim.Time, seed uint64) *EverFlow {
	if rotation <= 0 {
		rotation = 60 * sim.Second
	}
	e := &EverFlow{
		sim: s, congThr: congThr,
		WatchSize: 1000, Rotation: rotation,
		seenFlows:   make(map[pkt.FlowKey]bool),
		synMirrored: make(map[synKey]bool),
		watched:     make(map[pkt.FlowKey]bool),
		detected:    make(Detections),
		rng:         sim.NewStream(seed, "everflow"),
	}
	e.scheduleRotation()
	return e
}

// Stop halts watchlist rotation (lets simulations drain).
func (e *EverFlow) Stop() { e.stopped = true }

func (e *EverFlow) scheduleRotation() {
	e.sim.Schedule(e.Rotation, func() {
		if e.stopped {
			return
		}
		e.rotate()
		e.scheduleRotation()
	})
}

// rotate picks a fresh random watchlist from the flows seen so far.
func (e *EverFlow) rotate() {
	e.watched = make(map[pkt.FlowKey]bool, e.WatchSize)
	if len(e.candidate) == 0 {
		return
	}
	for i := 0; i < e.WatchSize; i++ {
		e.watched[e.candidate[e.rng.Intn(len(e.candidate))]] = true
	}
}

// OnIngress mirrors flow-start packets and telemetry for watched flows.
func (e *EverFlow) OnIngress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	if p.Kind != pkt.KindData {
		return
	}
	if !e.seenFlows[p.Flow] {
		e.seenFlows[p.Flow] = true
		e.candidate = append(e.candidate, p.Flow)
		e.overhead += MirrorTruncation // SYN mirror
	}
	if e.watched[p.Flow] {
		e.overhead += MirrorTruncation
	}
}

// OnEgress records path observations: only the first packet of a flow at
// a switch (the mirrored SYN) and every packet of watched flows carry the
// forwarding metadata to the collector, so a mid-flow re-path of an
// unwatched flow is invisible.
func (e *EverFlow) OnEgress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	if p.Kind != pkt.KindData {
		return
	}
	key := synKey{sw.ID, p.Flow}
	if !e.synMirrored[key] {
		e.synMirrored[key] = true
		e.detected.addPath(sw.ID, p.Flow, uint8(p.IngressPort), uint8(port))
		return
	}
	if e.watched[p.Flow] {
		e.detected.addPath(sw.ID, p.Flow, uint8(p.IngressPort), uint8(port))
	}
}

// OnDrop is visible only for watched flows (their per-hop telemetry
// reveals the missing hop).
func (e *EverFlow) OnDrop(sw *dataplane.Switch, p *pkt.Packet, code fevent.DropCode, visible bool) {
	if p.Kind != pkt.KindData || !e.watched[p.Flow] {
		return
	}
	e.detected.add(sw.ID, fevent.TypeDrop, p.Flow, code)
}

// OnDequeue detects congestion for watched flows.
func (e *EverFlow) OnDequeue(sw *dataplane.Switch, p *pkt.Packet, port, queue int, qdelay sim.Time) {
	if p.Kind != pkt.KindData || qdelay < e.congThr || !e.watched[p.Flow] {
		return
	}
	e.detected.add(sw.ID, fevent.TypeCongestion, p.Flow, fevent.DropNone)
}

// Detected returns the flow events EverFlow reported with flow attribution.
func (e *EverFlow) Detected() Detections { return e.detected }

// OverheadBytes returns the mirrored bytes EverFlow shipped.
func (e *EverFlow) OverheadBytes() uint64 { return e.overhead }
