// Incast: the paper's case #4 — an unexpected traffic volume congests a
// switch and operators need to know *which flows* to reroute.
//
// Sixteen senders burst simultaneously at one receiver on the paper's
// 10-switch testbed. The receiver's ToR queue overflows; NetSeer's
// MMU-drop and congestion events identify the contributing flows ranked
// by aggregated packet count, which is exactly the evidence the operators
// in the paper lacked.
//
//	go run ./examples/incast
package main

import (
	"cmp"
	"fmt"
	"slices"

	"netseer"
	"netseer/internal/fevent"
)

func main() {
	net := netseer.NewNetwork(netseer.NetworkConfig{Seed: 7})
	hosts := net.Hosts()
	receiver := hosts[0]

	// 16 senders × 512 kB simultaneous bursts into one 25 Gb/s host link.
	for i, snd := range hosts[8:24] {
		net.SendBurst(snd, receiver, uint16(20000+i), 512, 1000)
	}

	net.Run(10 * netseer.Millisecond)
	net.Close()

	drops := net.Events(netseer.Query{Type: netseer.EventDrop, DropCode: fevent.DropMMUCongestion})
	congestion := net.Events(netseer.Query{Type: netseer.EventCongestion})
	fmt.Printf("MMU-drop events: %d, congestion events: %d\n\n", len(drops), len(congestion))

	// Rank contributing flows by their final drop counts, equal counts by
	// flow key: the map hands them over in no fixed order.
	type contrib struct {
		flow  netseer.FlowKey
		count uint16
	}
	best := map[netseer.FlowKey]uint16{}
	for _, e := range drops {
		if e.Count > best[e.Flow] {
			best[e.Flow] = e.Count
		}
	}
	var ranked []contrib
	for f, c := range best {
		ranked = append(ranked, contrib{f, c})
	}
	slices.SortFunc(ranked, func(a, b contrib) int {
		return cmp.Or(cmp.Compare(b.count, a.count),
			cmp.Compare(a.flow.SrcIP, b.flow.SrcIP), cmp.Compare(a.flow.DstIP, b.flow.DstIP),
			cmp.Compare(a.flow.SrcPort, b.flow.SrcPort), cmp.Compare(a.flow.DstPort, b.flow.DstPort),
			cmp.Compare(a.flow.Proto, b.flow.Proto))
	})

	fmt.Println("top flows to reroute (by dropped packets):")
	for i, c := range ranked {
		if i == 8 {
			break
		}
		fmt.Printf("  %2d. %v  dropped=%d\n", i+1, c.flow, c.count)
	}

	// Sanity: every contributor targets the incast receiver.
	for _, c := range ranked {
		if c.flow.DstIP != receiver.Node.IP {
			fmt.Printf("unexpected victim flow: %v\n", c.flow)
		}
	}
	fmt.Printf("\nall %d contributing flows target %s — scheduling decision ready in one query\n",
		len(ranked), receiver.Node.Name)
}
