package collector

import (
	"hash/maphash"

	"netseer/internal/pkt"
)

// flowKey is a flow's 13 wire bytes, as a record carries them.
type flowKey = [pkt.FlowKeyLen]byte

// flowSlot is one 20 B cell of the flow table; head 0 marks it empty.
type flowSlot struct {
	key  flowKey
	head uint32
}

const (
	flowSlotBytes = 20
	flowMinSlots  = 16
)

// flowTable maps a flow to the position+1 of its newest stored event:
// open addressing with linear probing over a power-of-two slot array,
// doubled when more than 3/4 full and allocated at the first insert
// (DESIGN §10). Flow keys are chosen by whoever sends traffic, so the
// hash is keyed by a per-table random seed; the 4 B hash a record carries
// is no substitute — it is the peer's to set, and it is the event key's
// hash, not the flow's.
type flowTable struct {
	seed  maphash.Seed
	slots []flowSlot
	n     int // flows held
}

// flowSlotsFor returns the slot count of a table grown to hold n flows.
func flowSlotsFor(n int) int {
	if n == 0 {
		return 0
	}
	c := flowMinSlots
	for n > c/4*3 {
		c *= 2
	}
	return c
}

// find returns the slot holding key, or the empty slot where it belongs.
func (t *flowTable) find(key []byte) *flowSlot {
	k := (*flowKey)(key)
	mask := uint64(len(t.slots) - 1)
	for i := maphash.Bytes(t.seed, k[:]) & mask; ; i = (i + 1) & mask {
		if sl := &t.slots[i]; sl.head == 0 || sl.key == *k {
			return sl
		}
	}
}

// get returns the head stored for key, 0 if there is none.
func (t *flowTable) get(key []byte) uint32 {
	if t.n == 0 {
		return 0
	}
	return t.find(key).head
}

// swap stores head (non-zero) for key and returns the head it replaces, 0
// for a flow not seen before: the one probe an appended event makes.
func (t *flowTable) swap(key []byte, head uint32) uint32 {
	if t.slots == nil {
		t.grow(flowMinSlots)
	}
	sl := t.find(key)
	prev := sl.head
	if prev == 0 {
		if t.n == len(t.slots)/4*3 {
			t.grow(2 * len(t.slots))
			sl = t.find(key)
		}
		sl.key = flowKey(key)
		t.n++
	}
	sl.head = head
	return prev
}

// grow rehashes the table into a slot array of the given size.
func (t *flowTable) grow(slots int) {
	old := t.slots
	if old == nil {
		t.seed = maphash.MakeSeed()
	}
	t.slots = make([]flowSlot, slots)
	for i := range old {
		if old[i].head != 0 {
			*t.find(old[i].key[:]) = old[i]
		}
	}
}
