package experiments

import (
	"fmt"

	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/metrics"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// This file regenerates Fig. 15: (a) the minimal ring-buffer size per
// port needed to recover a drop, as a function of packet size, and (b)
// the total SRAM needed to tolerate a given run of consecutive drops.

// RingSizingPoint is one Fig. 15(a) sample.
type RingSizingPoint struct {
	PacketSize int
	// MinSlots is the smallest ring that recovered the victim in the
	// simulated scenario.
	MinSlots int
	// AnalyticSlots is the closed-form bound: packets transmitted during
	// the notification turnaround (2×propagation + processing) at line
	// rate.
	AnalyticSlots int
}

// ringScenario simulates one drop under continuous line-rate traffic of
// the given packet size on a 2-switch 100 Gb/s line and reports whether a
// ring of `slots` recovers the victim's flow.
func ringScenario(slots, pktSize int) bool {
	tp := topo.Line(2, 100e9, 100e9, sim.Microsecond)
	fab := dataplane.BuildFabric(tp, dataplane.Config{}, 1)
	fab.GT.Enabled = false
	s := fab.Sim
	var recovered bool
	hA, _ := tp.NodeByName("hA")
	hB, _ := tp.NodeByName("hB")
	victim := pkt.FlowKey{SrcIP: hA.IP, DstIP: hB.IP, SrcPort: 777, DstPort: 80, Proto: pkt.ProtoUDP}
	sink := sinkFunc(func(b *fevent.Batch) {
		for _, e := range b.Events {
			if e.DropCode == fevent.DropInterSwitch && e.Flow == victim {
				recovered = true
			}
		}
	})
	nss := core.Deploy(fab, core.Config{RingSlots: slots}, sink)
	stub := &countingDevice{}
	fab.AttachHost(hA.ID, stub)
	fab.AttachHost(hB.ID, stub)
	at := fab.HostPorts[hA.ID][0]
	interLink := fab.LinkBetween("sw0", "sw1")

	bg := pkt.FlowKey{SrcIP: hA.IP, DstIP: hB.IP, SrcPort: 1, DstPort: 80, Proto: pkt.ProtoUDP}
	var id uint64
	send := func(flow pkt.FlowKey) {
		id++
		at.Link.Send(at.FromA, &pkt.Packet{ID: id, Kind: pkt.KindData, Flow: flow, WireLen: pktSize, TTL: 8})
	}
	// Warm the sequence, then drop exactly one victim packet, then keep
	// the line busy at full rate: the ring must survive until the gap
	// notification returns.
	for i := 0; i < 3; i++ {
		send(bg)
	}
	s.Run(20 * sim.Microsecond)
	interLink.InjectLossBurst(true, 1)
	send(victim)
	// Continuous line-rate traffic (back-to-back at the switch egress):
	// enough packets to cover several turnaround times.
	for i := 0; i < 4*1024; i++ {
		send(bg)
	}
	s.Run(5 * sim.Millisecond)
	core.Drain(s, nss)
	return recovered
}

// Fig15aRingSizing finds the minimal ring size per packet size, by
// doubling then binary search, and pairs it with the analytic bound. Each
// packet size's search is an independent chain of deterministic sims, so
// the sizes fan out over the worker pool.
func Fig15aRingSizing(pktSizes []int) []RingSizingPoint {
	return parallelMap(len(pktSizes), func(i int) RingSizingPoint {
		size := pktSizes[i]
		analytic := analyticSlots(size)
		lo, hi := 1, analytic*4+8
		// Ensure hi works; widen if not.
		for !ringScenario(hi, size) {
			hi *= 2
			if hi > 1<<16 {
				break
			}
		}
		for lo < hi {
			mid := (lo + hi) / 2
			if ringScenario(mid, size) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		return RingSizingPoint{PacketSize: size, MinSlots: lo, AnalyticSlots: analytic}
	})
}

// analyticSlots is the closed-form sizing: during the notification
// turnaround (2 × 1 µs propagation + ~2 µs pipeline/MAC processing) a
// 100 Gb/s port transmits turnaround×rate/8 bytes; the ring must hold that
// many packets of the given size.
func analyticSlots(pktSize int) int {
	turnaroundSec := 2e-6 + 2e-6
	bytes := turnaroundSec * 100e9 / 8
	n := int(bytes/float64(pktSize)) + 1
	return n
}

// SRAMPoint is one Fig. 15(b) sample.
type SRAMPoint struct {
	ConsecutiveDrops int
	PacketSize       int
	SRAMBytes        int
}

// Fig15bSRAM computes total ring SRAM for a 64-port switch to tolerate a
// given run of consecutive drops: the ring needs (drops + turnaround
// margin) slots per port. The hardware stores a compacted 12-byte record
// per slot (8 B flow digest resolved via the flow table + 4 B packet ID),
// which reproduces the paper's ≈800 KB for 1,000 × 1,024 B drops.
func Fig15bSRAM(drops []int, pktSizes []int, ports int) []SRAMPoint {
	const bytesPerSlot = 12
	var out []SRAMPoint
	for _, d := range drops {
		for _, size := range pktSizes {
			slots := d + analyticSlots(size)
			out = append(out, SRAMPoint{
				ConsecutiveDrops: d,
				PacketSize:       size,
				SRAMBytes:        slots * bytesPerSlot * ports,
			})
		}
	}
	return out
}

// Fig15Tables renders both panels.
func Fig15Tables(a []RingSizingPoint, b []SRAMPoint) (ta, tb *metrics.Table) {
	ta = metrics.NewTable("Fig 15(a): minimal ring size per port",
		"packet size", "min slots (simulated)", "analytic bound")
	for _, p := range a {
		ta.AddRow(fmt.Sprintf("%dB", p.PacketSize),
			fmt.Sprintf("%d", p.MinSlots), fmt.Sprintf("%d", p.AnalyticSlots))
	}
	tb = metrics.NewTable("Fig 15(b): SRAM vs consecutive drops (64 ports)",
		"consecutive drops", "packet size", "SRAM")
	for _, p := range b {
		tb.AddRow(fmt.Sprintf("%d", p.ConsecutiveDrops),
			fmt.Sprintf("%dB", p.PacketSize),
			fmt.Sprintf("%.0fKB", float64(p.SRAMBytes)/1024))
	}
	return ta, tb
}

// sinkFunc adapts a function to core.EventSink.
type sinkFunc func(*fevent.Batch)

// Deliver implements core.EventSink.
func (f sinkFunc) Deliver(b *fevent.Batch) { f(b) }

// countingDevice is a host stub counting deliveries.
type countingDevice struct{ n uint64 }

// Receive implements link.Device.
func (c *countingDevice) Receive(p *pkt.Packet, port int) { c.n++ }

// Interface checks.
var (
	_ core.EventSink = sinkFunc(nil)
	_ link.Device    = (*countingDevice)(nil)
)
