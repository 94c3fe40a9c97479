// Package ringbuf implements the upstream side of NetSeer's inter-switch
// drop detection (§3.3): a per-port ring buffer that records the flow key
// and consecutive packet ID of the most recent N packets sent to the
// neighboring device. When the downstream reports a gap [from, to] in the
// sequence numbers it received, Lookup retrieves the victims.
//
// Correctness property from the paper, enforced here and tested: even when
// the ring has been overwritten by subsequent traffic, Lookup never returns
// the *wrong* packets — it compares the recorded packet ID against the
// requested one before returning an entry, so overwritten slots are simply
// reported as unrecoverable rather than misattributed.
package ringbuf

import (
	"encoding/binary"

	"netseer/internal/pkt"
)

// Entry is one recorded packet: its flow identity, consecutive packet ID
// and on-wire length (length is kept so congestion/overhead accounting can
// reconstruct byte counts).
type Entry struct {
	Flow    pkt.FlowKey
	ID      uint32
	WireLen uint16
}

// Ring is a fixed-size per-egress-port packet record. The zero value is
// unusable; call New.
//
// Slots are addressed by a 64-bit virtual cursor rather than by the raw
// 32-bit packet ID: consecutive records advance the cursor by their ID
// delta, and a lookup rebases the ID against the newest record. With
// `id mod N` addressing and a non-power-of-two N, the ID sequence
// wrapping past 2³² aliases (2³² mod N ≠ 0) and two of the most recent
// N packets share a slot once per wrap; the virtual cursor keeps slot
// assignment continuous across the wrap, so the most recent N packets
// always occupy N distinct slots. Away from the wrap the two schemes
// assign identical slots (the simulator's IDs count up from 0), so
// sizing results such as Fig. 15 are unaffected.
type Ring struct {
	slots []slot

	virt    uint64 // virtual cursor of the newest record
	lastID  uint32 // packet ID recorded at virt
	started bool

	recorded uint64
	hits     uint64
	misses   uint64 // lookups whose slot was already overwritten
}

// New creates a ring with n slots. In the paper's sizing (Fig. 15), a port
// needs ≥25 slots to recover one 1024 B drop, and 64 ports × ~1,000 slots
// ≈ 800 KB SRAM tolerate 1,000 consecutive drops.
func New(n int) *Ring {
	if n <= 0 {
		panic("ringbuf: size must be positive")
	}
	return &Ring{slots: make([]slot, n)}
}

// slot is one record in the hardware layout, BytesPerSlot bytes
// (TestSlotIsBytesPerSlot): the flow key in wire order, the frame length
// and the packet ID. A recorded frame is never 0 B, so a zero wireLen
// marks a slot that holds no record.
type slot struct {
	flow    [pkt.FlowKeyLen]byte
	wireLen uint16
	id      uint32
}

// Size returns the slot count.
func (r *Ring) Size() int { return len(r.slots) }

// BytesPerSlot is the SRAM cost of one slot in the hardware layout:
// 13 B flow key + 4 B packet ID + 2 B length ≈ 19, padded to 20 for
// word alignment — which is also what a slot costs here. Used by the
// Fig. 15(b) SRAM accounting.
const BytesPerSlot = 20

// Record stores the packet with the given consecutive ID in the next
// virtual slot. IDs are expected to be (close to) consecutive per ring,
// as the hardware counter produces them; the cursor advances by the
// uint32 delta from the previous record, which makes the 2³² wrap a
// plain +1 step instead of an aliasing discontinuity. wireLen must be
// positive.
func (r *Ring) Record(id uint32, flow pkt.FlowKey, wireLen int) {
	if !r.started {
		// Seed the cursor at the raw ID so slot assignment matches the
		// historical `id mod N` layout until the first wrap.
		r.virt = uint64(id)
		r.started = true
	} else {
		r.virt += uint64(id - r.lastID)
	}
	r.lastID = id
	s := &r.slots[r.virt%uint64(len(r.slots))]
	// The key goes in as two words and a byte, not through PutWire, whose
	// by-value receiver spills the key and reloads it wide: a stalled
	// store forward that made Record a third slower.
	binary.BigEndian.PutUint64(s.flow[0:8], uint64(flow.SrcIP)<<32|uint64(flow.DstIP))
	binary.BigEndian.PutUint32(s.flow[8:12], uint32(flow.SrcPort)<<16|uint32(flow.DstPort))
	s.flow[12] = flow.Proto
	s.wireLen, s.id = uint16(wireLen), id
	r.recorded++
}

// slotOf maps a packet ID to its virtual slot by rebasing against the
// newest record. ok is false when the ID predates the first record.
func (r *Ring) slotOf(id uint32) (int, bool) {
	if !r.started {
		return 0, false
	}
	back := uint64(r.lastID - id) // records behind the newest, mod 2³²
	if back > r.virt {
		return 0, false
	}
	return int((r.virt - back) % uint64(len(r.slots))), true
}

// Lookup retrieves the entry recorded for packet ID id. ok is false when
// the slot has been overwritten by a later packet (or never written): the
// caller must then treat the drop as detected-but-unattributable rather
// than guessing.
func (r *Ring) Lookup(id uint32) (Entry, bool) {
	i, ok := r.slotOf(id)
	s := &r.slots[i]
	if !ok || s.wireLen == 0 || s.id != id {
		r.misses++
		return Entry{}, false
	}
	r.hits++
	ips, ports := binary.BigEndian.Uint64(s.flow[0:8]), binary.BigEndian.Uint32(s.flow[8:12])
	return Entry{ID: id, WireLen: s.wireLen, Flow: pkt.FlowKey{
		SrcIP: uint32(ips >> 32), DstIP: uint32(ips),
		SrcPort: uint16(ports >> 16), DstPort: uint16(ports), Proto: s.flow[12]}}, true
}

// LookupRange retrieves all recoverable entries with IDs in the inclusive
// interval [from, to], in sequence order, handling uint32 wraparound. It
// returns the entries found and the count of IDs in the interval that were
// unrecoverable. Intervals longer than the ring size only scan the last
// Size() IDs (earlier ones are overwritten by construction) but still count
// the skipped ones as lost.
//
// The hardware cannot loop within a stage, so the real pipeline performs
// one Lookup per subsequent trigger packet; LookupRange is the aggregate
// the simulator uses once the per-packet triggers complete. See
// core.NetSeerSwitch for the trigger-paced variant.
func (r *Ring) LookupRange(from, to uint32) (found []Entry, unrecovered int) {
	n := rangeLen(from, to)
	start := from
	if n > uint32(len(r.slots)) {
		unrecovered += int(n - uint32(len(r.slots)))
		start = from + (n - uint32(len(r.slots)))
		n = uint32(len(r.slots))
	}
	for i := uint32(0); i < n; i++ {
		id := start + i
		if e, ok := r.Lookup(id); ok {
			found = append(found, e)
		} else {
			unrecovered++
		}
	}
	return found, unrecovered
}

// rangeLen returns the inclusive length of [from, to] under uint32
// wraparound arithmetic.
func rangeLen(from, to uint32) uint32 { return to - from + 1 }

// Stats reports recorded packets, successful lookups and overwritten-slot
// lookups.
func (r *Ring) Stats() (recorded, hits, misses uint64) {
	return r.recorded, r.hits, r.misses
}

// Reset clears all slots (used between experiment repetitions).
func (r *Ring) Reset() { clear(r.slots) }
