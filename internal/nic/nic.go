// Package nic models the host SmartNIC. The paper implements NetSeer's
// inter-switch modules (packet numbering + ring buffer on egress, gap
// detection on ingress) on Netronome NICs so that edge links — host↔ToR —
// are covered too; detected events are stored in local logs (§4 "NIC").
package nic

import (
	"netseer/internal/fevent"
	"netseer/internal/fifo"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
)

// Handler receives packets the NIC passes up to the host stack.
type Handler func(p *pkt.Packet)

// Config parameterizes a NIC.
type Config struct {
	// DisableSeq turns the NetSeer edge modules off (plain NIC).
	DisableSeq bool
}

const (
	// ringSlots sizes the egress ring: edge links are slower than fabric
	// links, so a smaller ring than a switch port's suffices.
	ringSlots = 256
	// lineBps is the line rate that paces transmissions.
	lineBps = 25e9
)

// NIC is one host network interface attached to a single access link.
type NIC struct {
	sim     *sim.Simulator
	cfg     Config
	lnk     *link.Link
	fromA   bool
	handler Handler

	seq seqtrack.Port

	// Local event log (the NIC cannot reach the collector directly; the
	// host agent reads the log).
	Log []fevent.Event

	// Serialization: txq holds the packets waiting for the wire, the head
	// being the one on it. One departure is armed at a time: txDone, a
	// pre-bound closure, sends the head and re-arms itself one
	// serialization time later for the packet behind it, so back-to-back
	// packets leave at the previous departure plus their own serialization
	// and the backlog never sits in the simulator's queue.
	txq    fifo.Queue[*pkt.Packet]
	txDone func()

	// Stats.
	txPackets, rxPackets uint64
	corruptRx            uint64
	gaps                 uint64
	pausedPrio           [8]bool
}

// New creates a NIC transmitting on the given link side, delivering
// received data packets to handler.
func New(s *sim.Simulator, l *link.Link, fromA bool, cfg Config, handler Handler) *NIC {
	if handler == nil {
		panic("nic: handler must not be nil")
	}
	n := &NIC{
		sim: s, cfg: cfg, lnk: l, fromA: fromA, handler: handler,
		seq: seqtrack.NewPort(ringSlots),
	}
	n.txDone = n.depart
	return n
}

// depart puts the head of txq on the link and arms the departure of the
// packet behind it.
func (n *NIC) depart() {
	p := n.txq.Pop()
	if n.txq.Len() > 0 {
		n.sim.Schedule(n.ser(n.txq.Peek()), n.txDone)
	}
	n.lnk.Send(n.fromA, p)
}

// ser is the time p occupies the wire.
func (n *NIC) ser(p *pkt.Packet) sim.Time {
	return sim.Time(float64(p.WireLen*8) / lineBps * 1e9)
}

// Send transmits a packet, tagging it with the edge sequence number and
// recording it in the ring. Serialization time is modeled by delaying
// back-to-back sends.
func (n *NIC) Send(p *pkt.Packet) {
	n.txPackets++
	if !n.cfg.DisableSeq {
		n.seq.Tag(p)
	}
	if n.txq.Len() == 0 {
		n.sim.Schedule(n.ser(p), n.txDone)
	}
	n.txq.Push(p)
}

// Receive implements link.Device.
func (n *NIC) Receive(p *pkt.Packet, port int) {
	if p.Corrupt {
		n.corruptRx++
		return
	}
	n.rxPackets++
	switch p.Kind {
	case pkt.KindPFC:
		if p.PFC != nil {
			for prio := uint8(0); prio < 8; prio++ {
				if p.PFC.IsPause(prio) {
					n.pausedPrio[prio] = true
				} else if p.PFC.IsResume(prio) {
					n.pausedPrio[prio] = false
				}
			}
		}
		return
	case pkt.KindLossNotify:
		// NIC processors can loop: resolve the whole gap at once.
		n.seq.Accept(p.Payload)
		for n.seq.Pending() {
			if e, ok := n.seq.Resolve(); ok {
				n.Log = append(n.Log, fevent.Event{
					Type: fevent.TypeDrop, Flow: e.Flow,
					DropCode: fevent.DropInterSwitch,
					Count:    1, Hash: e.Flow.Hash(),
					Timestamp: n.sim.Now(),
				})
			}
		}
		return
	}
	if !n.cfg.DisableSeq {
		if gap, ok := n.seq.Strip(p); ok {
			n.gaps++
			seqtrack.Notify(gap, func(np *pkt.Packet) { n.lnk.Send(n.fromA, np) })
		}
	}
	n.handler(p)
}

// Paused reports whether the given priority is PFC-paused (exposed so
// hosts can pace lossless traffic).
func (n *NIC) Paused(prio uint8) bool { return n.pausedPrio[prio] }

// Stats reports tx, rx, corrupt-discard and gap counts.
func (n *NIC) Stats() (tx, rx, corrupt, gaps uint64) {
	return n.txPackets, n.rxPackets, n.corruptRx, n.gaps
}
