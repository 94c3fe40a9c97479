// Package sketch implements NetSeer's compact-sketch detection family:
// a count-min sketch (plain and conservative-update) and a
// space-saving/HashPipe-style top-K table, plus the per-switch Stage that
// drives both from the pipeline burst path and emits the three sketch
// event types (heavy-hitter onset, top-K churn, per-link aggregate
// spike).
//
// Everything obeys the same match-action memory model the group cache
// respects: fixed-size arrays sized at construction, direct indexing off
// the pre-computed CRC-32C flow hash, and zero steady-state allocation
// (pinned by AllocsPerRun tests).
package sketch

// CMS is a count-min sketch: depth rows of width counters. An update
// increments (or, in conservative-update mode, raises to the new minimum)
// one counter per row; the estimate for a key is the minimum of its
// counters, which can only overestimate the true count — never
// underestimate. With w = ⌈e/ε⌉ and d = ⌈ln 1/δ⌉ the overestimate exceeds
// ε·N with probability at most δ (Cormode & Muthukrishnan); the
// conservative-update variant (Estan & Varghese) only ever writes smaller
// values than the plain sketch, so it inherits the same bound.
//
// Keys are the 32-bit CRC-32C flow hashes the data plane already computes
// (§3.6): the d row indices are derived with a Kirsch-Mitzenmacher double
// hash, so updating costs d multiply-free index computations and no
// allocation.
type CMS struct {
	width uint32
	depth int
	// mask is width-1 when width is a power of two (the recommended
	// sizing), replacing the per-row modulo with an AND.
	mask uint32
	// rows holds depth*width counters, row-major.
	rows []uint32
	// conservative selects conservative update.
	conservative bool
	// total is the stream length N (number of Update calls).
	total uint64
}

// NewCMS returns a sketch with the given geometry. Panics on non-positive
// dimensions, since a zero-width sketch cannot honor the overestimate
// contract.
func NewCMS(width, depth int, conservative bool) *CMS {
	if width <= 0 || depth <= 0 {
		panic("sketch: CMS width and depth must be positive")
	}
	c := &CMS{
		width:        uint32(width),
		depth:        depth,
		rows:         make([]uint32, width*depth),
		conservative: conservative,
	}
	if width&(width-1) == 0 {
		c.mask = uint32(width) - 1
	}
	return c
}

// mix is a 32-bit finalizer (murmur3 fmix32) used to derive the second
// hash of the double-hashing scheme from the flow hash.
func mix(h uint32) uint32 {
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	h *= 0xc2b2ae35
	h ^= h >> 16
	return h
}

// cell returns the index into rows for row i of key hash h, using
// h1 + i·h2 double hashing (h2 forced odd so all rows differ).
func (c *CMS) cell(h uint32, i int) uint32 {
	idx := h + uint32(i)*(mix(h)|1)
	if c.mask != 0 {
		return uint32(i)*c.width + (idx & c.mask)
	}
	return uint32(i)*c.width + idx%c.width
}

// Update counts one occurrence of the key and returns the new estimate.
func (c *CMS) Update(h uint32) uint32 {
	c.total++
	if !c.conservative {
		est := ^uint32(0)
		for i := 0; i < c.depth; i++ {
			j := c.cell(h, i)
			if c.rows[j] != ^uint32(0) {
				c.rows[j]++
			}
			if c.rows[j] < est {
				est = c.rows[j]
			}
		}
		return est
	}
	// Conservative update: only raise counters to the new minimum, so no
	// counter grows beyond what the smallest (most accurate) cell
	// requires.
	est := c.Estimate(h)
	if est == ^uint32(0) {
		return est
	}
	est++
	for i := 0; i < c.depth; i++ {
		j := c.cell(h, i)
		if c.rows[j] < est {
			c.rows[j] = est
		}
	}
	return est
}

// AddN adds n occurrences of the key using the order-free plain-CMS rule
// (every cell grows by n, saturating), regardless of the conservative
// flag. The final plain state is independent of stream order — each cell
// is exactly the sum of the true counts of the keys hashing to it — and
// upper-bounds every intermediate conservative-update estimate of any
// interleaving of the same multiset. The oracle's differential checker
// uses this to rebuild a deterministic estimate ceiling from exact
// ground-truth flow counts.
func (c *CMS) AddN(h uint32, n uint64) {
	for i := 0; i < c.depth; i++ {
		j := c.cell(h, i)
		if s := uint64(c.rows[j]) + n; s < uint64(^uint32(0)) {
			c.rows[j] = uint32(s)
		} else {
			c.rows[j] = ^uint32(0)
		}
	}
	c.total += n
}

// Estimate returns the current estimate for the key: the minimum of its
// depth counters. Never below the true count of updates for the key.
func (c *CMS) Estimate(h uint32) uint32 {
	est := ^uint32(0)
	for i := 0; i < c.depth; i++ {
		if v := c.rows[c.cell(h, i)]; v < est {
			est = v
		}
	}
	return est
}

// Total returns the stream length N (number of updates), the N of the
// ε·N error bound.
func (c *CMS) Total() uint64 { return c.total }

// Depth reports the number of rows.
func (c *CMS) Depth() int { return c.depth }

// Occupancy counts non-zero cells — the obs gauge that shows how close
// the sketch is to saturating its error bound (a full sketch means
// every new flow collides somewhere).
func (c *CMS) Occupancy() int {
	n := 0
	for _, v := range c.rows {
		if v != 0 {
			n++
		}
	}
	return n
}

// MemoryBytes reports the SRAM footprint of the counter array, for the
// memory-budget accounting in DESIGN.md §13.
func (c *CMS) MemoryBytes() int { return len(c.rows) * 4 }
