package core

import (
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
)

// This file implements dataplane.Telemetry: Step 1, event packet
// detection, feeding Step 2's group caching tables.

// IngressData handles the inter-switch sequence machinery on arrival:
// strip the packet-ID tag and detect gaps (§3.3, steps 3–4 of Fig. 5).
func (n *NetSeerSwitch) IngressData(p *pkt.Packet, port int) {
	n.stats.RawPackets++
	n.stats.RawBytes += uint64(p.WireLen)
	if !n.seqOn {
		return
	}
	if gap, ok := n.seq[port].Strip(p); ok {
		n.stats.SeqGapsDetected++
		seqtrack.Notify(gap, func(np *pkt.Packet) {
			n.sw.SendFromPort(port, np)
			n.stats.NotifySent++
		})
	}
}

// HandleLossNotify is the upstream side (§3.3 step 5): queue the missing
// interval for resolution against the ring. The hardware cannot loop in a
// stage, so resolution is paced: each of the notification's copies and
// each subsequent egress packet on the port triggers one lookup.
func (n *NetSeerSwitch) HandleLossNotify(p *pkt.Packet, port int) {
	clipped, ok := n.seq[port].Accept(p.Payload)
	if !ok {
		return
	}
	n.stats.LostRingOverwrite += uint64(clipped)
	// The two repeated copies were dropped by Accept, so trigger all
	// three copies' lookups here.
	for i := 0; i < seqtrack.NotifyCopies; i++ {
		n.triggerLookup(port)
	}
}

// triggerLookup performs at most one ring lookup for the oldest pending
// missing ID on the port.
func (n *NetSeerSwitch) triggerLookup(port int) {
	sp := &n.seq[port]
	if !sp.Pending() {
		return
	}
	e, ok := sp.Resolve()
	if !ok {
		n.stats.LostRingOverwrite++
		return
	}
	n.stats.InterSwitchFound++
	ev := fevent.Event{
		Type:       fevent.TypeDrop,
		Flow:       e.Flow,
		EgressPort: uint8(port),
		DropCode:   n.portCode[port],
		Hash:       e.Flow.Hash(),
	}
	n.offerEventPacket(&ev, int(e.WireLen))
}

// drainPendingLookups resolves all outstanding lookups (end of run).
func (n *NetSeerSwitch) drainPendingLookups() {
	for port := range n.seq {
		for n.seq[port].Pending() {
			n.triggerLookup(port)
		}
	}
}

// PipelineForward performs path-change learning and the paused-queue check
// for every forwarded packet.
func (n *NetSeerSwitch) PipelineForward(p *pkt.Packet, inPort, outPort, queue int, queuePaused bool) {
	if p.Kind == pkt.KindData || p.Kind == pkt.KindProbe {
		n.detectPathChange(p, inPort, outPort)
	}
	if queuePaused {
		// Pause events share the internal port budget; check it before
		// spending the hash computation on a packet that will be dropped.
		if !n.internalPort.TryTake(n.sim.Now(), p.WireLen) {
			n.stats.LostInternalPort++
			return
		}
		ev := fevent.Event{
			Type:       fevent.TypePause,
			Flow:       p.Flow,
			EgressPort: uint8(outPort),
			Queue:      uint8(queue),
			Hash:       p.FlowHash(),
		}
		n.statEventPacket(fevent.TypePause, p.WireLen)
		n.pauseTab.Offer(&ev)
	}
}

// detectPathChange consults the flow path table: a new flow, a changed
// (in, out) pair, or an expired entry re-reports the flow's path (§3.3).
func (n *NetSeerSwitch) detectPathChange(p *pkt.Packet, inPort, outPort int) {
	now := n.sim.Now()
	// The packet carries its flow hash: it indexes the path table and
	// rides along on any emitted event.
	hash := p.FlowHash()
	var idx int
	if n.pathMask >= 0 {
		idx = int(hash) & n.pathMask
	} else {
		idx = int(hash % uint32(len(n.pathTable)))
	}
	e := &n.pathTable[idx]
	f := &p.Flow
	same := e.used && e.src == f.SrcIP && e.dst == f.DstIP &&
		e.srcPort == f.SrcPort && e.dstPort == f.DstPort && e.proto == f.Proto &&
		e.in == uint8(inPort) && e.out == uint8(outPort) &&
		now-e.lastSeen <= pathExpiry
	if same {
		e.lastSeen = now
		return
	}
	e.src, e.dst = f.SrcIP, f.DstIP
	e.srcPort, e.dstPort, e.proto = f.SrcPort, f.DstPort, f.Proto
	e.in, e.out, e.used = uint8(inPort), uint8(outPort), true
	e.lastSeen = now
	ev := fevent.Event{
		Type:        fevent.TypePathChange,
		Flow:        p.Flow,
		IngressPort: uint8(inPort),
		EgressPort:  uint8(outPort),
		Count:       1,
		Hash:        hash,
	}
	// Path change is flow-level by nature: it bypasses group caching and
	// goes straight to extraction.
	n.statEventPacket(fevent.TypePathChange, p.WireLen)
	n.onFlowEvent(&ev)
}

// OnPipelineDrop selects dropped packets as event packets (Fig. 4 rows).
func (n *NetSeerSwitch) OnPipelineDrop(p *pkt.Packet, inPort int, code fevent.DropCode, aclRule int) {
	// Redirected events from the ingress pipeline share the internal port.
	if !n.internalPort.TryTake(n.sim.Now(), p.WireLen) {
		n.stats.LostInternalPort++
		return
	}
	n.statDropPacket(code, p.WireLen)
	ev := fevent.Event{
		Type:        fevent.TypeDrop,
		Flow:        p.Flow,
		IngressPort: uint8(inPort),
		DropCode:    code,
		Hash:        p.FlowHash(),
	}
	if code == fevent.DropACLDeny {
		// Aggregated per rule, not per flow (§3.4).
		ev.ACLRule = uint8(aclRule)
		n.aclAgg.Offer(uint8(aclRule), &ev)
		return
	}
	n.dropTable.Offer(&ev)
}

// OnMMUDrop selects congestion-dropped packets, bounded by the MMU's
// redirect capacity (§4: ~40 Gb/s).
func (n *NetSeerSwitch) OnMMUDrop(p *pkt.Packet, inPort, outPort, queue int) {
	now := n.sim.Now()
	if !n.mmuRedirect.TryTake(now, p.WireLen) {
		n.stats.LostMMURedirect++
		return
	}
	if !n.internalPort.TryTake(now, p.WireLen) {
		n.stats.LostInternalPort++
		return
	}
	n.statDropPacket(fevent.DropMMUCongestion, p.WireLen)
	ev := fevent.Event{
		Type:        fevent.TypeDrop,
		Flow:        p.Flow,
		IngressPort: uint8(inPort),
		EgressPort:  uint8(outPort),
		DropCode:    fevent.DropMMUCongestion,
		Hash:        p.FlowHash(),
	}
	n.dropTable.Offer(&ev)
}

// OnDequeue selects congested packets by queuing delay (§3.3): runs at
// line rate in egress, no capacity cap.
func (n *NetSeerSwitch) OnDequeue(p *pkt.Packet, outPort, queue int, qdelay sim.Time) {
	if p.Kind != pkt.KindData && p.Kind != pkt.KindProbe {
		return
	}
	if qdelay < n.congThreshold {
		return
	}
	us := qdelay / sim.Microsecond
	if us > 0xffff {
		us = 0xffff
	}
	n.statEventPacket(fevent.TypeCongestion, p.WireLen)
	ev := fevent.Event{
		Type:           fevent.TypeCongestion,
		Flow:           p.Flow,
		EgressPort:     uint8(outPort),
		Queue:          uint8(queue),
		QueueLatencyUs: uint16(us),
		Hash:           p.FlowHash(),
	}
	n.congTable.Offer(&ev)
}

// EgressData paces pending inter-switch lookups (one per subsequent
// packet, since the hardware cannot loop within a stage), then numbers
// and records the outgoing packet (§3.3, steps 1–2 of Fig. 5). The lookup
// goes first, so it sees the slot before this packet can overwrite it.
func (n *NetSeerSwitch) EgressData(p *pkt.Packet, outPort int) {
	n.triggerLookup(outPort)
	if n.seqOn {
		n.seq[outPort].Tag(p)
	}
}

// OnCorruptFrame notes a MAC-level discard; the flow recovery happens via
// the seq gap the discard creates.
func (n *NetSeerSwitch) OnCorruptFrame(port int) {}
