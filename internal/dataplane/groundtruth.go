package dataplane

import (
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// GroundTruth is the omniscient ledger the simulator keeps of every flow
// event that actually happened in the fabric, regardless of what any
// monitor observed. Coverage experiments compare a monitor's detections
// against it. Like the switch's group cache (§3.4), it keeps one entry per
// flow event with a packet counter, so it grows with flow events, not
// packets.
type GroundTruth struct {
	// Enabled gates recording; disable for pure-throughput benchmarks.
	Enabled bool

	// SketchWindow, when non-zero, additionally maintains the exact
	// per-flow and per-link aggregates the sketch stage approximates:
	// FlowPkts and LinkWindowBytes, with window indices computed as
	// at/SketchWindow (truncated to 16 bits, matching the wire field).
	// Zero (the default) leaves recordForward allocation-free, with one
	// path lookup per forwarded packet.
	SketchWindow sim.Time

	// Events is the ledger: one entry per flow event, in first-seen order.
	Events []GTEvent
	// TypePackets counts the packets noted per event type, each one event
	// packet at its detection point (Fig. 13a). For path changes it counts
	// the changes themselves.
	TypePackets [fevent.TypePause + 1]int
	// ACLDenies counts the packets each (switch, ACL rule) denied.
	ACLDenies map[GTACLRule]int

	// FlowPkts is the exact number of packets each flow had forwarded
	// through each switch pipeline (pre-MMU survivors — exactly the stream
	// the sketch stage observes). Nil until SketchWindow is set.
	FlowPkts map[GTSwitchFlow]uint64
	// LinkWindowBytes is the exact byte total forwarded through each
	// (switch, egress port) within each sketch window.
	LinkWindowBytes map[GTLinkWindow]uint64

	index map[FlowEventKey]int32 // into Events
	// pathSeen tracks (switch, flow) → (in, out) for path-change ground
	// truth.
	pathSeen map[GTSwitchFlow]gtPorts
}

// GTEvent is one flow event of the ledger.
type GTEvent struct {
	Key FlowEventKey
	// Packets is how many packets the flow event covered; for a path
	// change, how many times the flow took that port pair at the switch.
	Packets int
	// First is when the first packet was noted.
	First sim.Time
	// Port is the first packet's egress port for congestion and pause
	// events, zero otherwise.
	Port uint8
	// Changed marks a path change that was a genuine mid-flow re-path at
	// least once, not only the flow's first appearance at the switch.
	Changed bool
}

// GTSwitchFlow keys the exact per-flow forwarded-packet counts.
type GTSwitchFlow struct {
	SwitchID uint16
	Flow     pkt.FlowKey
}

// GTLinkWindow keys the exact per-link per-window byte totals.
type GTLinkWindow struct {
	SwitchID uint16
	Port     uint8
	Window   uint16
}

// GTACLRule keys the per-rule ACL deny counts.
type GTACLRule struct {
	SwitchID uint16
	Rule     uint8
}

type gtPorts struct{ in, out uint8 }

// NewGroundTruth returns an enabled ledger.
func NewGroundTruth() *GroundTruth {
	return &GroundTruth{
		Enabled:   true,
		ACLDenies: make(map[GTACLRule]int),
		index:     make(map[FlowEventKey]int32),
		pathSeen:  make(map[GTSwitchFlow]gtPorts),
	}
}

// note ledgers one packet of flow event k, seen at time at on egress port.
func (g *GroundTruth) note(k FlowEventKey, at sim.Time, port uint8, changed bool) {
	if g == nil || !g.Enabled {
		return
	}
	g.TypePackets[k.Type]++
	if i, ok := g.index[k]; ok {
		e := &g.Events[i]
		e.Packets++
		e.Changed = e.Changed || changed
		return
	}
	g.index[k] = int32(len(g.Events))
	g.Events = append(g.Events, GTEvent{Key: k, Packets: 1, First: at, Port: port, Changed: changed})
}

// deny counts one packet an ACL rule dropped; the drop itself is noted
// separately.
func (g *GroundTruth) deny(sw uint16, rule uint8) {
	if g == nil || !g.Enabled {
		return
	}
	g.ACLDenies[GTACLRule{sw, rule}]++
}

func (g *GroundTruth) recordForward(at sim.Time, sw uint16, p *pkt.Packet, in, out int) {
	if g == nil || !g.Enabled {
		return
	}
	sf := GTSwitchFlow{sw, p.Flow}
	if g.SketchWindow > 0 {
		if g.FlowPkts == nil {
			g.FlowPkts = make(map[GTSwitchFlow]uint64)
			g.LinkWindowBytes = make(map[GTLinkWindow]uint64)
		}
		g.FlowPkts[sf]++
		win := uint16(uint64(at) / uint64(g.SketchWindow))
		g.LinkWindowBytes[GTLinkWindow{sw, uint8(out), win}] += uint64(p.WireLen)
	}
	ports := gtPorts{uint8(in), uint8(out)}
	prev, seen := g.pathSeen[sf]
	if !seen || prev != ports {
		g.pathSeen[sf] = ports
		g.note(FlowEventKey{SwitchID: sw, Type: fevent.TypePathChange, Flow: p.Flow, In: ports.in, Out: ports.out}, at, 0, seen)
	}
}

// FlowEventKey is the flow-event identity used when comparing monitor
// output against ground truth: one (switch, type, flow[, drop code]) is one
// flow event regardless of how many packets it covered.
type FlowEventKey struct {
	SwitchID uint16
	Type     fevent.Type
	Flow     pkt.FlowKey
	Code     fevent.DropCode
	// In/Out qualify path-change events: detecting a re-path requires
	// observing the flow on its *new* ports, not merely knowing the flow
	// exists. Zero for other event types.
	In, Out uint8
}

// EventKey is the flow-event identity of a reported event: the drop code
// only for drops, the ports only for path changes.
func EventKey(e *fevent.Event) FlowEventKey {
	k := FlowEventKey{SwitchID: e.SwitchID, Type: e.Type, Flow: e.Flow}
	switch e.Type {
	case fevent.TypeDrop:
		k.Code = e.DropCode
	case fevent.TypePathChange:
		k.In, k.Out = e.IngressPort, e.EgressPort
	}
	return k
}

// Lookup returns the ledger entry of flow event k, or nil if it never
// happened.
func (g *GroundTruth) Lookup(k FlowEventKey) *GTEvent {
	if i, ok := g.index[k]; ok {
		return &g.Events[i]
	}
	return nil
}

// flowEvents returns the ledger's flow events of type t that keep accepts
// (nil = all), each with its packet count.
func (g *GroundTruth) flowEvents(t fevent.Type, keep func(*GTEvent) bool) map[FlowEventKey]int {
	out := make(map[FlowEventKey]int)
	for i := range g.Events {
		e := &g.Events[i]
		if e.Key.Type == t && (keep == nil || keep(e)) {
			out[e.Key] = e.Packets
		}
	}
	return out
}

// DropFlowEvents returns the distinct drop flow events in the ledger,
// optionally filtered by code predicate (nil = all).
func (g *GroundTruth) DropFlowEvents(filter func(fevent.DropCode) bool) map[FlowEventKey]int {
	return g.flowEvents(fevent.TypeDrop, func(e *GTEvent) bool { return filter == nil || filter(e.Key.Code) })
}

// CongestionFlowEvents returns the distinct congestion flow events.
func (g *GroundTruth) CongestionFlowEvents() map[FlowEventKey]int {
	return g.flowEvents(fevent.TypeCongestion, nil)
}

// PathChangeFlowEvents returns the distinct path-change flow events,
// keyed with their ports. changedOnly restricts to genuine mid-flow
// re-paths (the events Fig. 9 injects), excluding first appearances.
func (g *GroundTruth) PathChangeFlowEvents(changedOnly bool) map[FlowEventKey]int {
	return g.flowEvents(fevent.TypePathChange, func(e *GTEvent) bool { return !changedOnly || e.Changed })
}

// PauseFlowEvents returns the distinct pause flow events.
func (g *GroundTruth) PauseFlowEvents() map[FlowEventKey]int {
	return g.flowEvents(fevent.TypePause, nil)
}
