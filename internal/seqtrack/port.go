package seqtrack

import (
	"netseer/internal/fifo"
	"netseer/internal/pkt"
)

// Port is one end of an instrumented link: the ring and counter of its
// egress side, the tracker of its ingress side, and the queue of notified
// gaps still to be resolved against the ring. Devices keep one Port per
// link end, by value; the zero value is unusable, call NewPort.
type Port struct {
	ring    Ring
	tracker Tracker
	next    uint32       // ID of the next tagged packet
	last    Notification // last accepted notification, to drop its repeated copies

	// from is the next ID to resolve and left how many IDs of its
	// interval remain; the intervals behind it wait in queue, one slot
	// each, so a notification costs O(1) memory however long its gap.
	from, left uint32
	queue      fifo.Queue[Notification]
}

// NewPort returns a port whose ring holds ringSlots packets.
func NewPort(ringSlots int) Port {
	// last starts as an interval of 2³² IDs, which no tracker emits, so
	// that a first gap of exactly ID 0 (after the IDs wrap) is not taken
	// for a repeated copy.
	return Port{ring: *NewRing(ringSlots), last: Notification{FromID: 1}}
}

// Tagged reports whether Tag numbers packets of kind k: data and probes.
func Tagged(k pkt.Kind) bool { return k == pkt.KindData || k == pkt.KindProbe }

// Tag numbers an outgoing data or probe packet, adds the NetSeer tag to
// its length and records it in the ring. Other kinds pass untagged.
func (p *Port) Tag(pk *pkt.Packet) {
	if !Tagged(pk.Kind) {
		return
	}
	id := p.next
	p.next++
	pk.SeqTag, pk.HasSeqTag = id, true
	pk.WireLen += pkt.NetSeerTagLen
	p.ring.Record(id, pk.Flow, pk.WireLen)
}

// Strip removes an arriving packet's tag, if it has one, and reports the
// gap that precedes it.
func (p *Port) Strip(pk *pkt.Packet) (Notification, bool) {
	if !pk.HasSeqTag {
		return Notification{}, false
	}
	id := pk.SeqTag
	pk.SeqTag, pk.HasSeqTag = 0, false
	pk.WireLen -= pkt.NetSeerTagLen
	return p.tracker.Observe(id)
}

// Notify sends the NotifyCopies high-priority copies of gap n back
// upstream through send.
func Notify(n Notification, send func(*pkt.Packet)) {
	payload := n.AppendTo(nil)
	for i := 0; i < NotifyCopies; i++ {
		send(&pkt.Packet{
			Kind:     pkt.KindLossNotify,
			WireLen:  pkt.MinEthernetFrame,
			Priority: 7,
			Payload:  payload,
		})
	}
}

// Accept takes one notification payload from downstream. A malformed
// payload or a repeated copy of the last notification is dropped (ok is
// false). Otherwise the interval is clipped to the newest ring-size IDs —
// the older ones are overwritten by construction, and clipped says how
// many — and queued for Resolve.
func (p *Port) Accept(payload []byte) (clipped uint32, ok bool) {
	n, err := DecodeNotification(payload)
	if err != nil || n == p.last {
		return 0, false
	}
	p.last = n
	if c, size := n.Count(), uint32(len(p.ring.slots)); c > size {
		clipped = c - size
		n.FromID += clipped
	}
	if p.left == 0 {
		p.from, p.left = n.FromID, n.Count()
	} else {
		p.queue.Push(n)
	}
	return clipped, true
}

// Pending reports whether a notified ID is still to be resolved.
func (p *Port) Pending() bool { return p.left > 0 }

// Resolve looks up the oldest notified ID still pending in the ring. ok
// is false when its slot was overwritten: the drop is detected but its
// flow is unknown, and is never guessed (§3.3). Call it only while
// Pending.
func (p *Port) Resolve() (e Entry, ok bool) {
	if p.left == 0 {
		panic("seqtrack: Resolve with nothing pending")
	}
	id := p.from
	p.from++
	if p.left--; p.left == 0 && p.queue.Len() > 0 {
		n := p.queue.Pop()
		p.from, p.left = n.FromID, n.Count()
	}
	return p.ring.Lookup(id)
}
