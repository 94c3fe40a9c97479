package seqtrack

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

// Ring is the upstream half of §3.3: a fixed-size record of the flow key
// and packet ID of the most recent N packets sent on one link, from which
// a notified gap's victims are recovered. Lookup never returns the
// *wrong* packet: it compares the recorded packet ID against the
// requested one, so a slot that later traffic overwrote is reported as
// unrecoverable rather than misattributed. The zero value is unusable;
// call NewRing.
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

	// virt is the virtual cursor of the newest record and lastID the
	// packet ID recorded there. Both start at zero, so the first record
	// lands at its raw ID: slot assignment matches the historical
	// `id mod N` layout until the first wrap.
	virt   uint64
	lastID uint32
}

// NewRing creates a ring with n slots. In the paper's sizing (Fig. 15), a
// port needs ≥25 slots to recover one 1024 B drop, and 64 ports × ~1,000
// slots ≈ 800 KB SRAM tolerate 1,000 consecutive drops.
func NewRing(n int) *Ring {
	if n <= 0 {
		panic("seqtrack: ring size must be positive")
	}
	return &Ring{slots: make([]slot, n)}
}

// slot is one record in the hardware layout (TestSlotIsBytesPerSlot):
// the 13 B flow key in wire order, the 2 B frame length and the 4 B
// packet ID, padded to 20 B for word alignment. A recorded frame is never
// 0 B, so a zero wireLen marks a slot that holds no record.
type slot struct {
	flow    [pkt.FlowKeyLen]byte
	wireLen uint16
	id      uint32
}

// Record stores the packet with the given consecutive ID in the next
// virtual slot. IDs are expected to be (close to) consecutive per ring,
// as the hardware counter produces them; the cursor advances by the
// uint32 delta from the previous record, which makes the 2³² wrap a
// plain +1 step instead of an aliasing discontinuity. wireLen must be
// positive.
func (r *Ring) Record(id uint32, flow pkt.FlowKey, wireLen int) {
	r.virt += uint64(id - r.lastID)
	r.lastID = id
	s := &r.slots[r.virt%uint64(len(r.slots))]
	// The key goes in as two words and a byte, not through PutWire, whose
	// by-value receiver spills the key and reloads it wide: a stalled
	// store forward that made Record a third slower.
	binary.BigEndian.PutUint64(s.flow[0:8], uint64(flow.SrcIP)<<32|uint64(flow.DstIP))
	binary.BigEndian.PutUint32(s.flow[8:12], uint32(flow.SrcPort)<<16|uint32(flow.DstPort))
	s.flow[12] = flow.Proto
	s.wireLen, s.id = uint16(wireLen), id
}

// slotOf maps a packet ID to its virtual slot by rebasing against the
// newest record. ok is false when the ID lies before virtual slot 0; a
// slot never written holds a zero wireLen.
func (r *Ring) slotOf(id uint32) (int, bool) {
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
		return Entry{}, false
	}
	ips, ports := binary.BigEndian.Uint64(s.flow[0:8]), binary.BigEndian.Uint32(s.flow[8:12])
	return Entry{ID: id, WireLen: s.wireLen, Flow: pkt.FlowKey{
		SrcIP: uint32(ips >> 32), DstIP: uint32(ips),
		SrcPort: uint16(ports >> 16), DstPort: uint16(ports), Proto: s.flow[12]}}, true
}
