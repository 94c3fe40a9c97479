package baselines

import (
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// NetSight mirrors every packet at every hop as a 64-byte postcard with
// forwarding metadata (ports, latency). From the complete postcard
// archive the collector reconstructs every flow event — full coverage —
// at the cost of per-packet-per-hop monitoring traffic (~18% bandwidth
// overhead in the paper's testbed, three orders of magnitude above
// NetSeer).
type NetSight struct {
	dataplane.NopMonitor
	congThr sim.Time

	detected  Detections
	overhead  uint64
	postcards uint64

	// pathSeen reconstructs path-change events from postcards.
	pathSeen map[nsPathKey]nsPorts
}

type nsPathKey struct {
	sw   uint16
	flow pkt.FlowKey
}

type nsPorts struct{ in, out uint8 }

// NewNetSight creates the NetSight baseline.
func NewNetSight(congThr sim.Time) *NetSight {
	return &NetSight{
		congThr:  congThr,
		detected: make(Detections),
		pathSeen: make(map[nsPathKey]nsPorts),
	}
}

// OnIngress emits one postcard per packet per hop.
func (n *NetSight) OnIngress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	if p.Kind != pkt.KindData && p.Kind != pkt.KindProbe {
		return
	}
	n.postcards++
	n.overhead += MirrorTruncation
}

// OnDrop: the postcard archive shows the packet's last hop — drops are
// fully attributable, including the reason in the final postcard's
// metadata.
func (n *NetSight) OnDrop(sw *dataplane.Switch, p *pkt.Packet, code fevent.DropCode, visible bool) {
	if p.Kind != pkt.KindData {
		return
	}
	n.detected.add(sw.ID, fevent.TypeDrop, p.Flow, code)
}

// OnDequeue: postcards carry per-hop latency, so congestion reconstructs
// exactly.
func (n *NetSight) OnDequeue(sw *dataplane.Switch, p *pkt.Packet, port, queue int, qdelay sim.Time) {
	if p.Kind != pkt.KindData || qdelay < n.congThr {
		return
	}
	n.detected.add(sw.ID, fevent.TypeCongestion, p.Flow, fevent.DropNone)
}

// OnEgress reconstructs paths from (ingress, egress) metadata.
func (n *NetSight) OnEgress(sw *dataplane.Switch, p *pkt.Packet, port int) {
	if p.Kind != pkt.KindData {
		return
	}
	key := nsPathKey{sw.ID, p.Flow}
	ports := nsPorts{uint8(p.IngressPort), uint8(port)}
	if prev, ok := n.pathSeen[key]; !ok || prev != ports {
		n.pathSeen[key] = ports
		n.detected.addPath(sw.ID, p.Flow, ports.in, ports.out)
	}
}

// OnLinkLost reconstructs inter-switch drops: the postcard archive shows
// a packet's last hop, so a frame destroyed or damaged in flight appears
// as a missing next-hop postcard, attributable to the upstream switch.
// Register with dataplane.Fabric.AddLinkLossHook.
func (n *NetSight) OnLinkLost(upstream *dataplane.Switch, p *pkt.Packet, corrupted bool) {
	if upstream == nil || p.Kind != pkt.KindData {
		return
	}
	n.detected.add(upstream.ID, fevent.TypeDrop, p.Flow, fevent.DropInterSwitch)
}

// Postcards returns the number of postcards generated (for the CPU-cost
// comparison: one core processes 240 kpps of postcards).
func (n *NetSight) Postcards() uint64 { return n.postcards }

// Detected returns the flow events NetSight reported with flow attribution.
func (n *NetSight) Detected() Detections { return n.detected }

// OverheadBytes returns the postcard bytes NetSight shipped.
func (n *NetSight) OverheadBytes() uint64 { return n.overhead }
