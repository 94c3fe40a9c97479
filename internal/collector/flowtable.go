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
	// probeGroup is how many keys swapRun hashes and touches before it
	// swaps the first of them. A full exporter batch is 50 records, one
	// run, so at 64 it pays one wave of slot misses rather than two
	// (recover_wal measured faster at 64 than at 32: bench/history).
	probeGroup = 64
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

	// touched keeps the touch pass's loads live: what they read is
	// summed here, so the compiler cannot drop them.
	touched uint32
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

// find returns the slot holding k, whose hash is h, or the empty slot
// where it belongs: the table's one probe loop. h is the full 64-bit
// hash, so a doubling only re-masks it.
func (t *flowTable) find(h uint64, k *flowKey) *flowSlot {
	mask := uint64(len(t.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
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
	return t.find(maphash.Bytes(t.seed, key), (*flowKey)(key)).head
}

// swapRun stores, in order, heads[i] (non-zero) for the key at
// keys[i*stride:] and leaves in heads[i] the head it replaced, 0 for a
// flow not seen before: the one write path of the table, taken by every
// appended event and every snapshot flow. It works probeGroup keys at a
// time in three passes — hash each key, touch each key's home slot, then
// find-or-insert each in order — so the group's cache misses are in
// flight together rather than one per loop body. A key repeated within a
// run sees the head its earlier copy stored, and the table grows at
// exactly the insert where a swap of one key at a time would have.
func (t *flowTable) swapRun(keys []byte, stride int, heads []uint32) {
	if len(heads) > 0 && t.slots == nil {
		t.grow(flowMinSlots)
	}
	var hash [probeGroup]uint64
	for base := 0; base < len(heads); base += probeGroup {
		group, keys := heads[base:min(base+probeGroup, len(heads))], keys[base*stride:]
		for i := range group {
			hash[i] = maphash.Bytes(t.seed, keys[i*stride:i*stride+pkt.FlowKeyLen])
		}
		// A slot can straddle two cache lines: touch its first byte and
		// its last word.
		mask, touched := uint64(len(t.slots)-1), uint32(0)
		for _, h := range hash[:len(group)] {
			sl := &t.slots[h&mask]
			touched += uint32(sl.key[0]) + sl.head
		}
		t.touched += touched
		for i, head := range group {
			k := (*flowKey)(keys[i*stride:])
			sl := t.find(hash[i], k)
			prev := sl.head
			if prev == 0 {
				if t.n == len(t.slots)/4*3 {
					t.grow(2 * len(t.slots))
					sl = t.find(hash[i], k)
				}
				sl.key = *k
				t.n++
			}
			sl.head, group[i] = head, prev
		}
	}
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
			*t.find(maphash.Bytes(t.seed, old[i].key[:]), &old[i].key) = old[i]
		}
	}
}
