package collector

import (
	"encoding/binary"
	"math/bits"
	"math/rand/v2"

	"netseer/internal/pkt"
)

// flowKey is a flow's 13 wire bytes, as a record carries them.
type flowKey = [pkt.FlowKeyLen]byte

// flowCell is one cell of the flow index: a flow's id+1 (0 = empty) and
// the position+1 of its newest stored event. The head sits beside the id
// so that a lookup can start on the flow's newest event while it is still
// comparing the key.
type flowCell struct{ id, head uint32 }

const flowMinSlots = 16

// flowTable is the flow dictionary (DESIGN §10): keys holds every flow
// in first-seen order, and a flow's index in it is its stable flow id,
// what a block stores for an event in place of its 13 B key. index finds
// a key's cell: open addressing with linear probing over a power-of-two
// array, doubled, with keys' capacity, when more than 3/4 full, and
// allocated at the first insert. Flow keys are chosen by whoever sends
// traffic, so the hash is keyed by two random words per table, both
// mixed into both factors of its first multiply; the 4 B hash a record
// carries is no substitute — it is the peer's to set, and the store does
// not keep it (DESIGN §10). The seed never leaves the process: a
// snapshot carries keys and heads in id order, and a reload re-inserts
// them under a fresh one.
type flowTable struct {
	seed  [2]uint64
	keys  []flowKey
	index []flowCell
}

// flowSlotsFor returns the index size of a table grown to hold n flows.
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

// flowTableBytes is what a table of the given index size has allocated:
// its 8 B cells and the dictionary's capacity of keys, 3/4 of a slot.
func flowTableBytes(slots int) int64 {
	return int64(slots)*8 + int64(slots/4*3)*pkt.FlowKeyLen
}

// hash mixes a key's two overlapping 8 B words with the seed by two
// folded 64×64→128-bit multiplies. Each factor of the first carries a
// seed word, so no key bytes zero a factor, or the product, for every
// seed.
func (t *flowTable) hash(k *flowKey) uint64 {
	const mixA, mixB = 0xa0761d6478bd642f, 0xe7037ed1a0b428db
	hi, lo := bits.Mul64(binary.LittleEndian.Uint64(k[:8])^t.seed[0], binary.LittleEndian.Uint64(k[pkt.FlowKeyLen-8:])^t.seed[1])
	hi, lo = bits.Mul64(hi^mixA, lo^mixB)
	return hi ^ lo
}

// find returns the index cell holding k, whose hash is h, or the empty
// cell where it belongs: the table's one probe loop. h is the full
// 64-bit hash, so a doubling only re-masks it.
func (t *flowTable) find(h uint64, k *flowKey) *flowCell {
	mask := uint64(len(t.index) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		if c := &t.index[i]; c.id == 0 || t.keys[c.id-1] == *k {
			return c
		}
	}
}

// lookup returns key's cell, the zero cell if the table holds no such
// flow.
func (t *flowTable) lookup(key []byte) flowCell {
	if len(t.keys) == 0 {
		return flowCell{}
	}
	k := (*flowKey)(key)
	return *t.find(t.hash(k), k)
}

// swapRun stores, in order, heads[i] (non-zero) for the key at
// keys[i*stride:], leaves in heads[i] the head it replaced, 0 for a flow
// not seen before, and in ids[i] the key's flow id: the write path of
// the table, taken by every appended event. It makes one pass, a key at
// a time: hash it, find its cell, then insert it or swap its head. A key repeated within a run sees the head its earlier
// copy stored.
func (t *flowTable) swapRun(keys []byte, stride int, heads, ids []uint32) {
	if len(heads) > 0 && t.index == nil {
		t.grow(flowMinSlots)
	}
	for i, head := range heads {
		k := (*flowKey)(keys[i*stride:])
		h := t.hash(k)
		c := t.find(h, k)
		if c.id == 0 {
			if len(t.keys) == cap(t.keys) {
				t.grow(2 * len(t.index))
				c = t.find(h, k)
			}
			t.keys = append(t.keys, *k)
			c.id = uint32(len(t.keys))
		}
		heads[i], ids[i], c.head = c.head, c.id-1, head
	}
}

// grow moves the table to an index of the given size and a dictionary of
// 3/4 its capacity, re-placing every cell; ids and heads do not change.
// The first grow draws the table's seed.
func (t *flowTable) grow(slots int) {
	if t.index == nil {
		t.seed = [2]uint64{rand.Uint64(), rand.Uint64()}
	}
	keys := make([]flowKey, len(t.keys), slots/4*3)
	copy(keys, t.keys)
	old := t.index
	t.keys, t.index = keys, make([]flowCell, slots)
	for _, c := range old {
		if c.id != 0 {
			k := &t.keys[c.id-1]
			*t.find(t.hash(k), k) = c
		}
	}
}

// place fills the index of a table grown for its keys, which a snapshot
// load appended, with a cell for each, its head from heads: the load's
// write path, which reads only keys and writes only index, so it runs
// beside the load's decoding of the blocks. It returns -1, or the id of
// the first key that repeats an earlier one, with that one's id.
func (t *flowTable) place(heads []uint32) (int, int) {
	for id := range t.keys {
		k := &t.keys[id]
		c := t.find(t.hash(k), k)
		if c.id != 0 {
			return id, int(c.id - 1)
		}
		c.id, c.head = uint32(id+1), heads[id]
	}
	return -1, 0
}
