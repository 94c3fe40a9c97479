// Middlebox: the paper's §3.7 monitoring principles on a software load
// balancer sitting bump-in-the-wire between a NIC and a server.
//
// Three things happen and all three surface as flow events:
//
//  1. the wire toward the middlebox silently drops frames — recovered by
//     the upstream NIC's ring buffer (inter-device drop awareness);
//
//  2. the middlebox's processing queue overflows under a burst — reported
//     as local drop events with the victim flow (event-based anomaly
//     detection);
//
//  3. everything lands in one event log via a reliable channel.
//
//     go run ./examples/middlebox
package main

import (
	"fmt"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/middlebox"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

type memSink struct{ events []fevent.Event }

func (m *memSink) Deliver(b *fevent.Batch) { m.events = append(m.events, b.Events...) }

type deferred struct{ dev link.Device }

func (d *deferred) Receive(p *pkt.Packet, port int) {
	if d.dev != nil {
		d.dev.Receive(p, port)
	}
}

func main() {
	s := sim.New()
	sink := &memSink{}
	// Deliberately undersized: 2 Gb/s service, 16 kB queue.
	mb := middlebox.New(s, middlebox.Config{ServiceBps: 2e9, QueueBytes: 16 << 10, SwitchID: 100}, sink)

	aDef, nDef := &deferred{}, &deferred{}
	upLink := link.New(s, link.Endpoint{Dev: aDef, Port: 0}, link.Endpoint{Dev: nDef, Port: 0},
		sim.Microsecond, sim.NewStream(1, "up"))
	sDef, bDef := &deferred{}, &deferred{}
	downLink := link.New(s, link.Endpoint{Dev: sDef, Port: 0}, link.Endpoint{Dev: bDef, Port: 0},
		sim.Microsecond, sim.NewStream(2, "down"))

	var received int
	client := nic.New(s, upLink, true, nic.Config{}, nil, func(*pkt.Packet) {})
	server := nic.New(s, downLink, false, nic.Config{}, nil, func(*pkt.Packet) { received++ })
	aDef.dev = client
	bDef.dev = server
	nDef.dev = mb.Device(middlebox.North)
	sDef.dev = mb.Device(middlebox.South)
	mb.AttachLink(middlebox.North, upLink, false)
	mb.AttachLink(middlebox.South, downLink, true)

	flowA := pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 1), DstIP: pkt.IP(10, 0, 1, 1), SrcPort: 1111, DstPort: 80, Proto: pkt.ProtoTCP}
	flowB := pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 2), DstIP: pkt.IP(10, 0, 1, 1), SrcPort: 2222, DstPort: 80, Proto: pkt.ProtoTCP}
	send := func(f pkt.FlowKey, n int) {
		for i := 0; i < n; i++ {
			client.Send(&pkt.Packet{ID: uint64(i), Kind: pkt.KindData, Flow: f, WireLen: 1000, TTL: 64})
		}
	}

	// Phase 1: clean traffic.
	send(flowA, 10)
	s.RunAll()

	// Phase 2: the wire to the middlebox goes bad for two frames.
	upLink.InjectLossBurst(true, 2)
	send(flowB, 2) // lost on the wire
	send(flowA, 5) // reveals the gap
	s.RunAll()

	// Phase 3: a burst overloads the middlebox's queue.
	send(flowA, 200)
	s.RunAll()

	fmt.Printf("server received: %d packets; middlebox processed %d, overload-dropped %d\n\n",
		received, mb.Processed, mb.Overloaded)

	fmt.Printf("NIC local log (inter-device drops toward the middlebox): %d entries\n", len(client.Log))
	for _, e := range client.Log {
		fmt.Printf("  %v\n", e.String())
	}
	fmt.Printf("\nmiddlebox event reports: %d\n", len(sink.events))
	byFlow := map[pkt.FlowKey]int{}
	for _, e := range sink.events {
		byFlow[e.Flow]++
	}
	for f, n := range byFlow {
		fmt.Printf("  %v: %d drop events\n", f, n)
	}
	fmt.Println("\nall three §3.7 principles observable: wire-loss recovery, event-based overload, reliable report.")
}
