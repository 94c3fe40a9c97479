package experiments

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// TestEdgeRingHoldsDepartedPackets: a host NIC numbers a packet and
// records it in its ring when the packet leaves (§3.3), as a switch does
// on egress. A host queues 2 000 packets at once, and its access link
// loses one frame after about 1 000 have left. The ToR's notification
// names an ID that left a few packets earlier, so the NIC's 256-slot ring
// still holds it, however many packets were queued behind it; the NIC
// logs the flow's drop.
func TestEdgeRingHoldsDepartedPackets(t *testing.T) {
	tb := NewTestbed(RunConfig{Dist: workload.WEB, Window: sim.Millisecond, Seed: 1, NetSeer: true})
	src, dst := tb.Hosts[0], tb.Hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP,
		SrcPort: 5353, DstPort: workload.DataPort, Proto: pkt.ProtoUDP}
	const packets, wire = 2000, 724
	src.SendUDP(flow, packets, wire, 0)
	// A tagged 730 B packet holds the 25 Gb/s line for 233.6 ns.
	at := tb.Fab.HostPorts[src.Node.ID][0]
	tb.Sim.Schedule(packets/2*234*sim.Nanosecond, func() { at.Link.InjectLossBurst(at.FromA, 1) })
	tb.Sim.Run(2 * sim.Millisecond)

	if tx, _, _, _ := src.NIC.Stats(); tx != packets {
		t.Fatalf("NIC sent %d packets, want %d", tx, packets)
	}
	drops := 0
	for _, e := range src.NIC.Log {
		if e.Type == fevent.TypeDrop && e.Flow == flow {
			drops++
		}
	}
	if drops != 1 {
		t.Errorf("NIC log holds %d drops of the flow, want 1 (log: %d entries)", drops, len(src.NIC.Log))
	}
}
