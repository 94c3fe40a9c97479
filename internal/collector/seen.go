package collector

import (
	"cmp"
	"slices"
	"unsafe"
)

// seenSet is the store's replay dedup state: the exact set of (switch,
// seq) keys of the sequenced batches it has stored. The reliable client
// assigns lifetime-monotonic sequence numbers, so one pair names exactly
// one batch even across reconnects (one producer per switch ID is
// assumed: the switch's own CPU).
//
// The set is Roaring-style. Per switch it keeps containers ordered by
// window, seq>>16, each holding the sorted low halves of its window's
// keys: 2 B a key, plus a container and its slice header per (switch,
// 64 Ki-sequence window). One client carries many switches, so a
// switch's sequences are strided rather than contiguous; each client
// starts at a random 62-bit base, so clients land in windows of their
// own, an in-order insert appends, and an out-of-order one shifts one
// container (at most 128 KiB), never a switch's whole history.
type seenSet struct {
	sws []seenSwitch // ordered by switch
	n   int          // keys held
	mem int64        // bytes of slice capacity held: what MemoryBytes charges
}

// seenSwitch holds one switch's keys.
type seenSwitch struct {
	cs []seenContainer // ordered by window
	sw uint16
}

// seenContainer holds the keys of one switch in one window.
type seenContainer struct {
	lo []uint16 // the keys' low halves, sorted
	hi uint64   // the window, seq>>16
}

const (
	seenSwitchCost    = int64(unsafe.Sizeof(seenSwitch{}))
	seenContainerCost = int64(unsafe.Sizeof(seenContainer{}))
	seenLowCost       = 2
)

// findSwitch returns sw's index in s.sws, or where it would go.
func (s *seenSet) findSwitch(sw uint16) (int, bool) {
	i, j := 0, len(s.sws)
	for i < j {
		if m := int(uint(i+j) >> 1); s.sws[m].sw < sw {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < len(s.sws) && s.sws[i].sw == sw
}

// findWindow returns window hi's index in cs, or where it would go; the
// newest window is tried first.
func findWindow(cs []seenContainer, hi uint64) (int, bool) {
	i, j := 0, len(cs)
	if j > 0 && cs[j-1].hi <= hi {
		if cs[j-1].hi == hi {
			return j - 1, true
		}
		return j, false
	}
	for i < j {
		if m := int(uint(i+j) >> 1); cs[m].hi < hi {
			i = m + 1
		} else {
			j = m
		}
	}
	return i, i < len(cs) && cs[i].hi == hi
}

// findLow returns x's index in the sorted lo, or where it would go; the
// last entry is tried first.
func findLow(lo []uint16, x uint16) (int, bool) {
	if n := len(lo); n > 0 && lo[n-1] <= x {
		if lo[n-1] == x {
			return n - 1, true
		}
		return n, false
	}
	return slices.BinarySearch(lo, x)
}

// has reports whether (sw, seq) is in the set.
func (s *seenSet) has(sw uint16, seq uint64) bool {
	i, ok := s.findSwitch(sw)
	if !ok {
		return false
	}
	cs := s.sws[i].cs
	j, ok := findWindow(cs, seq>>16)
	if !ok {
		return false
	}
	_, ok = findLow(cs[j].lo, uint16(seq))
	return ok
}

// add inserts (sw, seq) and reports whether it was absent.
func (s *seenSet) add(sw uint16, seq uint64) bool {
	e := s.switchEntry(sw)
	j, ok := findWindow(e.cs, seq>>16)
	if !ok {
		c := cap(e.cs)
		e.cs = slices.Insert(e.cs, j, seenContainer{hi: seq >> 16})
		s.mem += int64(cap(e.cs)-c) * seenContainerCost
	}
	c := &e.cs[j]
	k, ok := findLow(c.lo, uint16(seq))
	if ok {
		return false
	}
	n := cap(c.lo)
	c.lo = slices.Insert(c.lo, k, uint16(seq))
	s.mem += int64(cap(c.lo)-n) * seenLowCost
	s.n++
	return true
}

// switchEntry returns sw's entry, inserting an empty one.
func (s *seenSet) switchEntry(sw uint16) *seenSwitch {
	i, ok := s.findSwitch(sw)
	if !ok {
		c := cap(s.sws)
		s.sws = slices.Insert(s.sws, i, seenSwitch{sw: sw})
		s.mem += int64(cap(s.sws)-c) * seenSwitchCost
	}
	return &s.sws[i]
}

// compareBatchIDs orders dedup keys by switch, then sequence.
func compareBatchIDs(a, b BatchID) int {
	return cmp.Or(cmp.Compare(a.Switch, b.Switch), cmp.Compare(a.Seq, b.Seq))
}

// merge adds ids, in any order and with repeats. They are sorted (a copy,
// unless already in order) and merged one switch at a time: O(n + m),
// never a key at a time.
func (s *seenSet) merge(ids []BatchID) {
	if !slices.IsSortedFunc(ids, compareBatchIDs) {
		ids = slices.Clone(ids)
		slices.SortFunc(ids, compareBatchIDs)
	}
	for len(ids) > 0 {
		k := 1
		for k < len(ids) && ids[k].Switch == ids[0].Switch {
			k++
		}
		s.mergeSwitch(s.switchEntry(ids[0].Switch), ids[:k])
		ids = ids[k:]
	}
}

// mergeSwitch merges one switch's sorted ids into e, a container at a
// time; e's container list is rebuilt, at its union size, only when ids
// open new windows.
func (s *seenSet) mergeSwitch(e *seenSwitch, ids []BatchID) {
	old, windows := e.cs, len(e.cs)
	for j, k := 0, 0; k < len(ids); k++ {
		hi := ids[k].Seq >> 16
		if k > 0 && ids[k-1].Seq>>16 == hi {
			continue
		}
		for j < len(old) && old[j].hi < hi {
			j++
		}
		if j == len(old) || old[j].hi != hi {
			windows++
		}
	}
	cs := old[:0] // in place when every window exists: the j-th output is the j-th input
	if windows > len(old) {
		cs = slices.Grow([]seenContainer(nil), windows)
	}
	j := 0
	for len(ids) > 0 {
		hi, k := ids[0].Seq>>16, 1
		for k < len(ids) && ids[k].Seq>>16 == hi {
			k++
		}
		for ; j < len(old) && old[j].hi < hi; j++ {
			cs = append(cs, old[j])
		}
		c := seenContainer{hi: hi}
		if j < len(old) && old[j].hi == hi {
			c = old[j]
			j++
		}
		if n := mergeLows(nil, c.lo, ids[:k]); n > len(c.lo) {
			lo := slices.Grow([]uint16(nil), n)[:n] // capacity as the allocator rounds it
			mergeLows(lo, c.lo, ids[:k])
			s.n += n - len(c.lo)
			s.mem += int64(cap(lo)-cap(c.lo)) * seenLowCost
			c.lo = lo
		}
		cs = append(cs, c)
		ids = ids[k:]
	}
	cs = append(cs, old[j:]...)
	s.mem += int64(cap(cs)-cap(old)) * seenContainerCost
	e.cs = cs
}

// mergeLows merges the sorted lo with the low halves of ids (one
// window's, sorted, repeats allowed) into out, unless out is nil, and
// returns the size of the union.
func mergeLows(out, lo []uint16, ids []BatchID) int {
	o, i := 0, 0
	for k := range ids {
		x := uint16(ids[k].Seq)
		if k > 0 && uint16(ids[k-1].Seq) == x {
			continue
		}
		for ; i < len(lo) && lo[i] < x; i, o = i+1, o+1 {
			if out != nil {
				out[o] = lo[i]
			}
		}
		if i < len(lo) && lo[i] == x {
			i++
		}
		if out != nil {
			out[o] = x
		}
		o++
	}
	if out != nil {
		copy(out[o:], lo[i:])
	}
	return o + len(lo) - i
}

// each calls fn on every key, in (switch, seq) order.
func (s *seenSet) each(fn func(sw uint16, seq uint64)) {
	for _, e := range s.sws {
		for _, c := range e.cs {
			for _, x := range c.lo {
				fn(e.sw, c.hi<<16|uint64(x))
			}
		}
	}
}
