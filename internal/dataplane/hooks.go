package dataplane

import (
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Telemetry is the deep integration surface used by NetSeer: unlike a
// Monitor (a passive observer), a Telemetry implementation participates in
// forwarding — it strips/assigns the inter-switch packet-ID tag, consumes
// loss notifications, and receives every detection-relevant pipeline
// event. A Switch has at most one Telemetry (the paper embeds NetSeer into
// switch.p4 as an extension). No hook may keep the packet past its return:
// the fabric recycles dropped and delivered packets (pkt.Pool).
type Telemetry interface {
	// IngressData runs at the very beginning of ingress for data and probe
	// packets: inter-switch seq handling (strip tag, detect gaps).
	IngressData(p *pkt.Packet, port int)
	// HandleLossNotify consumes a downstream gap notification arriving on
	// port.
	HandleLossNotify(p *pkt.Packet, port int)
	// PipelineForward runs after the forwarding decision: path-change
	// learning and paused-queue lookup.
	PipelineForward(p *pkt.Packet, inPort, outPort, queue int, queuePaused bool)
	// OnPipelineDrop reports a packet dropped in the ingress pipeline.
	OnPipelineDrop(p *pkt.Packet, inPort int, code fevent.DropCode, aclRule int)
	// OnMMUDrop reports a congestion drop in the MMU.
	OnMMUDrop(p *pkt.Packet, inPort, outPort, queue int)
	// OnDequeue reports a packet leaving an egress queue with its measured
	// queuing delay.
	OnDequeue(p *pkt.Packet, outPort, queue int, qdelay sim.Time)
	// EgressData runs immediately before transmission: seq tag assignment
	// and ring-buffer recording.
	EgressData(p *pkt.Packet, outPort int)
	// OnCorruptFrame reports a frame the MAC discarded on arrival.
	OnCorruptFrame(port int)
}

// BurstTelemetry is an optional Telemetry extension. The switch coalesces
// same-instant ingress arrivals into bursts and runs its pipeline over
// them packet by packet; a Telemetry that also implements BurstTelemetry
// is told where each burst begins and ends, so it can batch its own
// downstream work (NetSeer buffers extracted records during the burst and
// hands them to the CEBP stack in one bulk push at EndBurst).
type BurstTelemetry interface {
	// BeginBurst announces a burst of n packets about to enter the
	// pipeline. Bursts do not nest.
	BeginBurst(n int)
	// EndBurst announces that the burst's last packet has left the
	// pipeline.
	EndBurst()
}

// SketchStage is an optional per-switch match-action stage that observes
// every packet surviving the ingress pipeline (post port-check, pre MMU
// admission — the same stream ground truth's recordForward ledgers). The
// sketch detection family (internal/sketch) implements it; the interface
// lives here so the sketch package never needs to import the dataplane.
type SketchStage interface {
	// Offer observes one forwarded packet: in is its ingress port, out the
	// chosen egress port. Implementations must not retain the packet.
	Offer(p *pkt.Packet, in, out int32, now sim.Time)
}

// Monitor is the passive observation surface shared by the baseline
// monitoring systems (sampling, EverFlow, NetSight…). All methods must be
// cheap; they run inline in the pipeline. Like Telemetry hooks, they must
// not keep the packet.
type Monitor interface {
	// OnIngress sees every packet entering the pipeline (after MAC).
	OnIngress(sw *Switch, p *pkt.Packet, port int)
	// OnDrop sees every dropped packet. visible reports whether ordinary
	// counters register the drop (parity-error silent drops do not).
	OnDrop(sw *Switch, p *pkt.Packet, code fevent.DropCode, visible bool)
	// OnDequeue sees every packet leaving an egress queue.
	OnDequeue(sw *Switch, p *pkt.Packet, port, queue int, qdelay sim.Time)
	// OnEgress sees every packet at transmission time.
	OnEgress(sw *Switch, p *pkt.Packet, port int)
}

// NopMonitor implements Monitor with no-ops, for embedding.
type NopMonitor struct{}

// OnIngress implements Monitor.
func (NopMonitor) OnIngress(*Switch, *pkt.Packet, int) {}

// OnDrop implements Monitor.
func (NopMonitor) OnDrop(*Switch, *pkt.Packet, fevent.DropCode, bool) {}

// OnDequeue implements Monitor.
func (NopMonitor) OnDequeue(*Switch, *pkt.Packet, int, int, sim.Time) {}

// OnEgress implements Monitor.
func (NopMonitor) OnEgress(*Switch, *pkt.Packet, int) {}
