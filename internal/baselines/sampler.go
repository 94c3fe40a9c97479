package baselines

import (
	"fmt"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Sampler is 1:N packet sampling (sFlow-style): every Nth packet entering
// a switch is mirrored (truncated) to the collector. A sampled packet
// reveals its flow's presence at the switch; if the *sampled* packet also
// happened to be congested at dequeue, the congestion is visible. Drops
// are invisible: sampling happens at ingress, and the sampled copy carries
// no fate information (§5.2 "sampling cannot capture packet drops").
type Sampler struct {
	dataplane.NopMonitor
	N int

	counter  map[uint16]uint64 // per-switch packet counter
	sampled  map[sampleKey]bool
	detected Detections
	overhead uint64
	congThr  sim.Time
}

type sampleKey struct {
	sw   uint16
	flow pkt.FlowKey
}

// NewSampler creates a 1:n sampler with the given congestion threshold
// (same definition as ground truth).
func NewSampler(n int, congThr sim.Time) *Sampler {
	if n <= 0 {
		panic("baselines: sampling ratio must be positive")
	}
	return &Sampler{
		N: n, counter: make(map[uint16]uint64),
		sampled:  make(map[sampleKey]bool),
		detected: make(Detections), congThr: congThr,
	}
}

// Name labels the sampler by its rate.
func (s *Sampler) Name() string { return fmt.Sprintf("sampling-1:%d", s.N) }

// OnIngress samples every Nth packet (overhead accounting; the sampled
// copy's forwarding metadata is recorded at egress).
func (s *Sampler) OnIngress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	s.counter[sw.ID]++
	if s.counter[sw.ID]%uint64(s.N) != 0 {
		return
	}
	s.overhead += MirrorTruncation
	s.sampled[sampleKey{sw.ID, p.Flow}] = true
}

// OnEgress reveals the sampled packet's (ingress, egress) ports — a path
// observation for its flow. The egress applies the same 1:N subsampling.
func (s *Sampler) OnEgress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	if p.Kind != pkt.KindData {
		return
	}
	key := sw.ID + 2<<14
	s.counter[key]++
	if s.counter[key]%uint64(s.N) != 0 {
		return
	}
	s.detected.addPath(sw.ID, p.Flow, uint8(p.IngressPort), uint8(port))
}

// OnDequeue detects congestion only for packets of flows whose sample at
// this switch happened to coincide: approximate the real mechanism by
// crediting congestion when the congested packet itself is the sampled
// one (1-in-N chance).
func (s *Sampler) OnDequeue(sw *dataplane.Switch, p *pkt.Packet, port, queue int, qdelay sim.Time) {
	if qdelay < s.congThr || p.Kind != pkt.KindData {
		return
	}
	// The dequeue sees the same 1:N subsampling: only the packet that was
	// selected at ingress carries telemetry. Model: this packet was
	// sampled iff the ingress counter selected it; approximate with an
	// independent per-switch counter over congested packets.
	s.counter[sw.ID+1<<15]++
	if s.counter[sw.ID+1<<15]%uint64(s.N) == 0 {
		s.detected.add(sw.ID, fevent.TypeCongestion, p.Flow, fevent.DropNone)
	}
}

// Detected returns the flow events the samples attributed.
func (s *Sampler) Detected() Detections { return s.detected }

// OverheadBytes returns the sampled bytes shipped.
func (s *Sampler) OverheadBytes() uint64 { return s.overhead }
