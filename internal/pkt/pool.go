package pkt

// poolCap bounds a Pool's free list: 1 024 packets, 120 KB. A drained
// fabric hands back every packet still in flight, and an unbounded free
// list would keep tens of thousands of them for the life of the run.
const poolCap = 1024

// Pool recycles the packets of one fabric and numbers them. Every device
// of a fabric shares its pool, so packets move between them without
// allocating; a packet is handed back (Put) where it leaves the fabric —
// delivered to a host, or dropped. Nothing may touch a packet after
// handing it back: the next Get returns it to someone else.
//
// A Pool is owned by one simulator and is not safe for concurrent use.
// The nil *Pool is valid: Put does nothing, which is what a device built
// outside a fabric gets.
type Pool struct {
	free    []*Packet
	nextID  uint64
	checked bool
}

// NewPool returns an empty pool whose first packet has ID 1.
func NewPool() *Pool { return &Pool{free: make([]*Packet, 0, poolCap)} }

// Get returns a zeroed packet carrying the pool's next ID.
func (pl *Pool) Get() *Packet {
	pl.nextID++
	var p *Packet
	if n := len(pl.free); n > 0 {
		p = pl.free[n-1]
		pl.free[n-1] = nil
		pl.free = pl.free[:n-1]
		p.released = false
	} else {
		p = &Packet{}
	}
	p.ID = pl.nextID
	return p
}

// Put hands p back. It zeroes the packet and keeps it for a later Get while
// the free list holds fewer than poolCap packets. The payload bytes are
// left alone: copies of one control frame may share a payload slice. A second
// Put of the same packet panics.
func (pl *Pool) Put(p *Packet) {
	if pl == nil {
		return
	}
	if p.released {
		panic("pkt: packet released twice")
	}
	if pl.checked {
		if p.hashed && p.hash != p.Flow.Hash() {
			panic("pkt: packet's flow changed after its hash was cached")
		}
		*p = poisoned
		return
	}
	*p = Packet{released: true}
	if len(pl.free) < poolCap {
		pl.free = append(pl.free, p)
	}
}

// Check turns the pool into a checking one for tests: it never reuses a
// packet, and Put overwrites what it is given with values no live packet
// has, so a use after release changes a run's outcome instead of silently
// reading another packet's state. Put also panics on a packet whose Flow
// changed after FlowHash cached its hash. Call it before the first Get.
func (pl *Pool) Check() {
	pl.checked = true
	pl.free = nil
}

// poisoned is what a checking pool leaves in a released packet.
var poisoned = Packet{
	ID:       ^uint64(0),
	Kind:     Kind(0xee),
	Flow:     FlowKey{SrcIP: 0xdeadbeef, DstIP: 0xdeadbeef, SrcPort: 0xdead, DstPort: 0xdead, Proto: 0xee},
	WireLen:  -1 << 30,
	Priority: 0xee,
	SeqTag:   0xdeadbeef,
	SentAt:   -1 << 60,
	released: true,
}
