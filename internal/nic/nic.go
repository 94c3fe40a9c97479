// Package nic models the host SmartNIC. The paper implements NetSeer's
// inter-switch modules (packet numbering + ring buffer on egress, gap
// detection on ingress) on Netronome NICs so that edge links — host↔ToR —
// are covered too; detected events are stored in local logs (§4 "NIC").
//
// A NIC queues sends, not packets: a packet the host built, or a burst of
// one flow's packets still to be built. It builds and numbers each packet
// as it departs, as a switch tags on egress, so its ring holds packets
// that have left and a lost edge frame can be attributed however deep the
// backlog behind it.
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
	pool    *pkt.Pool // builds a burst's packets

	seq seqtrack.Port

	// Local event log (the NIC cannot reach the collector directly; the
	// host agent reads the log).
	Log []fevent.Event

	// Serialization: txq holds the sends waiting for the wire, the head
	// being the one whose next packet is on it. One departure is armed at
	// a time: txDone, a pre-bound closure, builds, tags and sends the
	// head's next packet and re-arms itself one serialization time later
	// for the packet behind it, read off the entry, so back-to-back
	// packets leave at the previous departure plus their own serialization
	// and the backlog sits neither in the simulator's queue nor in
	// packets.
	txq    fifo.Queue[send]
	txDone func()

	// Stats.
	txPackets, rxPackets uint64
	corruptRx            uint64
	gaps                 uint64
	pausedPrio           [8]bool
}

// send is one entry of txq: a packet the caller built (p), or count data
// packets of one flow that the NIC builds as each departs.
type send struct {
	p       *pkt.Packet
	count   int
	flow    pkt.FlowKey
	wireLen int // untagged, as the packet carries it
	prio    uint8
	tagged  bool // the packets leave with the NetSeer tag
	sentAt  sim.Time
}

// New creates a NIC transmitting on the given link side, delivering
// received data packets to handler. Bursts are built from pool, the
// fabric's; a NIC outside a fabric passes nil and gets a pool of its own.
func New(s *sim.Simulator, l *link.Link, fromA bool, cfg Config, pool *pkt.Pool, handler Handler) *NIC {
	if handler == nil {
		panic("nic: handler must not be nil")
	}
	if pool == nil {
		pool = pkt.NewPool()
	}
	n := &NIC{
		sim: s, cfg: cfg, lnk: l, fromA: fromA, handler: handler, pool: pool,
		seq: seqtrack.NewPort(ringSlots),
	}
	n.txDone = n.depart
	return n
}

// depart puts the head send's next packet on the link, building it if
// the send is a burst and numbering it in the ring, and arms the
// departure of the packet behind it.
func (n *NIC) depart() {
	e := n.txq.Head()
	p, tagged := e.p, e.tagged
	if p == nil {
		p = n.pool.Get()
		p.Kind, p.Flow = pkt.KindData, e.flow
		p.WireLen, p.TTL, p.Priority = e.wireLen, 64, e.prio
		p.SentAt = e.sentAt
		e.count--
	}
	if e.count == 0 {
		n.txq.Pop()
	}
	if tagged {
		n.seq.Tag(p)
	}
	if n.txq.Len() > 0 {
		n.sim.Schedule(n.ser(n.txq.Head()), n.txDone)
	}
	n.lnk.Send(n.fromA, p)
}

// ser is the time one packet of e occupies the wire.
func (n *NIC) ser(e *send) sim.Time {
	wire := e.wireLen
	if e.tagged {
		wire += pkt.NetSeerTagLen
	}
	return sim.Time(float64(wire*8) / lineBps * 1e9)
}

// queue appends e to txq, arming the departure if the line is idle.
func (n *NIC) queue(e send) {
	if n.txq.Len() == 0 {
		n.sim.Schedule(n.ser(&e), n.txDone)
	}
	n.txq.Push(e)
}

// Send transmits a packet behind those already queued. It is tagged with
// the edge sequence number and recorded in the ring when it departs.
func (n *NIC) Send(p *pkt.Packet) {
	n.txPackets++
	n.queue(send{p: p, wireLen: p.WireLen, tagged: !n.cfg.DisableSeq && seqtrack.Tagged(p.Kind)})
}

// SendBurst transmits count data packets of flow, each wireLen bytes
// untagged at priority prio and stamped with the current time, back to
// back at line rate behind what is already queued. The NIC builds each
// packet from its pool as it departs.
func (n *NIC) SendBurst(flow pkt.FlowKey, count, wireLen int, prio uint8) {
	if count <= 0 {
		return
	}
	n.txPackets += uint64(count)
	n.queue(send{count: count, flow: flow, wireLen: wireLen, prio: prio,
		tagged: !n.cfg.DisableSeq, sentAt: n.sim.Now()})
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
