// Package link models the physical medium between two devices:
// propagation delay plus the failure modes NetSeer's inter-switch
// detection exists for — silent packet drops and corruption caused by
// contaminated connectors, bent fibre, decaying transmitters, etc. (§3.3).
//
// Serialization time is accounted by the transmitting port (it owns the
// line rate); a Link only delays, damages or destroys frames in flight.
package link

import (
	"netseer/internal/fifo"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Device is anything that can receive packets from a link: a switch
// pipeline or a host NIC.
type Device interface {
	// Receive delivers a packet arriving on the device's ingressPort. A
	// frame with Corrupt set is discarded by the device's MAC; the link
	// reclaims it when Receive returns.
	Receive(p *pkt.Packet, ingressPort int)
}

// Admitter is a Device that takes data frames when they are sent rather
// than when they arrive: a switch, whose only work on a data frame's
// arrival is to queue it for its pipeline. Admit hands over p, which will
// arrive on ingressPort at instant at, and saves the link the event that
// would deliver it. PFC and loss-notify frames change the receiver's state
// on arrival, and a corrupt frame is discarded by the MAC on arrival: those
// still go through Receive at their arrival instant.
type Admitter interface {
	Device
	Admit(p *pkt.Packet, ingressPort int, at sim.Time)
}

// Fault is an injectable per-direction failure process.
type Fault struct {
	// SilentLossProb silently destroys each frame with this probability.
	SilentLossProb float64
	// CorruptProb damages each frame with this probability; damaged frames
	// are delivered with Corrupt set (the receiving MAC drops them).
	CorruptProb float64
	// burst state: a scheduled run of consecutive losses.
	burstRemaining int
}

// Endpoint names one side of a link.
type Endpoint struct {
	Dev  Device
	Port int
}

// Link is a full-duplex medium between endpoints A and B.
type Link struct {
	sim  *sim.Simulator
	prop sim.Time

	ab, ba direction // frames A→B (delivered to endpoint B) and B→A

	down bool

	// OnLost, when set, is invoked for every frame destroyed in flight
	// (silent loss, burst, down link) or damaged (corrupted=true; the
	// frame still delivers and the receiving MAC discards it). Fabric
	// builders use it to feed the ground-truth ledger.
	OnLost func(fromA bool, p *pkt.Packet, corrupted bool)

	// Pool takes back the frames that end on the link: a destroyed frame
	// after the OnLost hook has seen it, a corrupt one once the receiving
	// MAC has discarded it. Nil keeps them (fabric builders set it).
	Pool *pkt.Pool
}

// direction is one half of the duplex medium: its receiving endpoint,
// failure process, counters and frames in flight.
type direction struct {
	to    Endpoint
	admit Admitter // to.Dev when it is one, else nil
	fault Fault
	// Per-direction fault RNG. Two independent streams rather than one
	// shared: each direction's draw sequence then depends only on that
	// direction's own frame order, not on how the two directions
	// interleave.
	rng *sim.Stream

	sent, delivered, lost, corrupt uint64

	// Frames propagating on the link's own simulator, other than the data
	// frames an Admitter took at send time. The propagation delay is
	// constant, so they arrive in the order they were sent: one pre-bound
	// closure (arrive) scheduled once per frame pops the queue, and
	// sending allocates nothing. The endpoint captured at send time
	// travels with the frame (see SetEndpoint).
	inflight fifo.Queue[frame]
	arrive   func()
}

type frame struct {
	p  *pkt.Packet
	to Endpoint
}

func (l *Link) land(d *direction) {
	f := d.inflight.Pop()
	corrupt := f.p.Corrupt // the receiver may release an intact frame
	f.to.Dev.Receive(f.p, f.to.Port)
	if corrupt {
		l.Pool.Put(f.p)
	}
}

// New creates a link with the given propagation delay. rng drives the
// fault processes of both directions and must not be nil; pass any stream
// for fault-free links too (it is cheap). Fabrics that need per-direction
// draw independence use NewSplit instead.
func New(s *sim.Simulator, a, b Endpoint, prop sim.Time, rng *sim.Stream) *Link {
	return NewSplit(s, a, b, prop, rng, rng)
}

// NewSplit creates a link whose two directions draw from independent
// fault streams (rngAB drives frames A→B).
func NewSplit(s *sim.Simulator, a, b Endpoint, prop sim.Time, rngAB, rngBA *sim.Stream) *Link {
	if a.Dev == nil || b.Dev == nil {
		panic("link: endpoints must have devices")
	}
	if rngAB == nil || rngBA == nil {
		panic("link: rng must not be nil")
	}
	l := &Link{sim: s, prop: prop, ab: direction{rng: rngAB}, ba: direction{rng: rngBA}}
	l.SetEndpoint(false, b)
	l.SetEndpoint(true, a)
	for _, d := range []*direction{&l.ab, &l.ba} {
		d.arrive = func() { l.land(d) }
	}
	return l
}

// dir returns the direction of frames transmitted from the given side.
func (l *Link) dir(fromA bool) *direction {
	if fromA {
		return &l.ab
	}
	return &l.ba
}

// SetEndpoint rewires one side of the link. Fabric builders construct
// links before all devices exist and patch endpoints afterwards; frames
// already in flight deliver to the endpoint captured at send time.
func (l *Link) SetEndpoint(aSide bool, e Endpoint) {
	if e.Dev == nil {
		panic("link: endpoint device must not be nil")
	}
	d := l.dir(!aSide)
	d.to = e
	d.admit, _ = e.Dev.(Admitter)
}

// SetFault configures the failure process for the direction from the given
// side ("from A" means frames transmitted by endpoint A).
func (l *Link) SetFault(fromA bool, f Fault) { l.dir(fromA).fault = f }

// InjectLossBurst destroys the next n frames in the given direction —
// the deterministic injector used to exercise consecutive-drop recovery
// (Fig. 15).
func (l *Link) InjectLossBurst(fromA bool, n int) { l.dir(fromA).fault.burstRemaining += n }

// SetDown marks the link administratively/physically down; both directions
// destroy all frames. (Port-down pipeline drops are detected at the
// transmitting switch before frames reach the link; SetDown models a cut
// in flight.)
func (l *Link) SetDown(down bool) { l.down = down }

// Down reports the link's down state.
func (l *Link) Down() bool { return l.down }

// PropDelay returns the propagation delay.
func (l *Link) PropDelay() sim.Time { return l.prop }

// Send transmits p from the given side. The packet is delivered to the
// opposite endpoint after the propagation delay, unless a fault destroys
// it; an intact data frame is admitted to an Admitter endpoint right away,
// stamped with that arrival instant. Send takes ownership of p.
func (l *Link) Send(fromA bool, p *pkt.Packet) {
	d := l.dir(fromA)
	d.sent++
	destroyed := l.down
	if !destroyed && d.fault.burstRemaining > 0 {
		d.fault.burstRemaining--
		destroyed = true
	}
	if destroyed || (d.fault.SilentLossProb > 0 && d.rng.Bool(d.fault.SilentLossProb)) {
		d.lost++
		l.lost(fromA, p, false)
		l.Pool.Put(p)
		return
	}
	if d.fault.CorruptProb > 0 && d.rng.Bool(d.fault.CorruptProb) {
		p.Corrupt = true
		d.corrupt++
		l.lost(fromA, p, true)
	}
	d.delivered++
	if d.admit != nil && !p.Corrupt && p.Kind != pkt.KindPFC && p.Kind != pkt.KindLossNotify {
		d.admit.Admit(p, d.to.Port, l.sim.Now()+l.prop)
		return
	}
	d.inflight.Push(frame{p: p, to: d.to})
	l.sim.Schedule(l.prop, d.arrive)
}

func (l *Link) lost(fromA bool, p *pkt.Packet, corrupted bool) {
	if l.OnLost != nil {
		l.OnLost(fromA, p, corrupted)
	}
}

// Stats reports per-direction counters: sent, delivered, silently lost,
// corrupted-but-delivered.
func (l *Link) Stats(fromA bool) (sent, delivered, lost, corrupt uint64) {
	d := l.dir(fromA)
	return d.sent, d.delivered, d.lost, d.corrupt
}
