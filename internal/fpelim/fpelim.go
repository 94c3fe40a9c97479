// Package fpelim implements NetSeer's switch-CPU stage (§3.6): eliminating
// data false positives (repeated initial reports of the same flow event
// caused by group-caching collisions), pacing, and reliable export of the
// surviving events to the backend collector.
//
// The paper's key optimization is offloading the hash computation to the
// ASIC: the data plane attaches a pre-computed CRC-32C to every record, so
// the CPU indexes its dedup table without hashing — a 2.5× capacity
// improvement. Both modes are implemented here; the Fig. 14(b) benchmark
// compares them.
package fpelim

import (
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/sim"
)

// HashMode selects where the dedup-table hash comes from.
type HashMode int

// Hash modes.
const (
	// PreHashed uses the 4-byte hash the data plane attached to the record
	// (the paper's design).
	PreHashed HashMode = iota
	// HashOnCPU recomputes the hash in software for every record (the
	// baseline the paper improves on).
	HashOnCPU
)

// Config parameterizes an Eliminator.
type Config struct {
	// Mode selects the hash source (default PreHashed).
	Mode HashMode
	// Window is how long a flow-event identity is remembered; a duplicate
	// initial report within the window is suppressed. Default 1 s.
	Window sim.Time
	// MaxEntries bounds the dedup map; oldest entries are evicted in
	// batches when exceeded. Default 1 << 20.
	MaxEntries int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = sim.Second
	}
	if c.MaxEntries <= 0 {
		c.MaxEntries = 1 << 20
	}
	return c
}

// Eliminator deduplicates flow-event reports. It is not safe for
// concurrent use; the switch CPU path is single-threaded per core, and
// multi-core deployments shard by hash (see Shard).
//
// The dedup table is open-addressed (linear probing, power-of-two
// capacity) and indexed by the ASIC-attached record hash, so the CPU
// never hashes the 20-byte identity itself — the paper's §3.6 offload,
// taken to its conclusion: a Go map would re-hash the full Key on every
// lookup, where the probe index here is a couple of integer ops on the
// hash the record already carries.
type Eliminator struct {
	cfg   Config
	slots []slot
	mask  uint32
	count int
	clock func() sim.Time

	seen       uint64
	duplicates uint64
	forwarded  uint64
}

// slot is one open-addressing entry. hash caches the slot index source so
// growth and expiry can rehash without the originating record.
type slot struct {
	key       fevent.Key
	hash      uint32
	lastCount uint16
	used      bool
	lastSeen  sim.Time
}

// initialSlots is the starting table capacity; the table doubles at 3/4
// load until MaxEntries caps the entry count.
const initialSlots = 512

// New creates an eliminator. clock supplies the current time (virtual in
// simulations, wall-derived in live deployments); it must not be nil.
func New(cfg Config, clock func() sim.Time) *Eliminator {
	if clock == nil {
		panic("fpelim: clock must not be nil")
	}
	return &Eliminator{
		cfg:   cfg.withDefaults(),
		slots: make([]slot, initialSlots),
		mask:  initialSlots - 1,
		clock: clock,
	}
}

// keyHash derives the probe index for ev's dedup identity. The base is
// the pre-computed flow hash the data plane attached (zero where Key()
// zeroes the flow, i.e. ACL drops aggregate at rule granularity); the
// non-flow identity fields are mixed in with one multiply-xorshift
// round. It is a pure function of ev.Key() as long as ev.Hash is the
// flow hash, which is the PreHashed-mode contract.
func keyHash(ev *fevent.Event) uint32 {
	h := ev.Hash
	if ev.Type == fevent.TypeDrop && ev.DropCode == fevent.DropACLDeny {
		h = 0
	}
	h ^= uint32(ev.Type)<<5 ^ uint32(ev.DropCode)<<11 ^ uint32(ev.ACLRule)<<17
	if ev.Type == fevent.TypePathChange {
		h ^= uint32(ev.IngressPort)<<23 | uint32(ev.EgressPort)<<27
	}
	if ev.Type == fevent.TypeAggSpike {
		// Spike records all carry the zero-flow hash; the link and window
		// are the identity, so mix them in to spread the probe chain.
		h ^= uint32(ev.EgressPort)<<23 ^ uint32(ev.Window)<<7
	}
	h *= 0x9e3779b1
	h ^= h >> 16
	return h
}

// Offer processes one reported event and reports whether it should be
// forwarded to the backend (true) or suppressed as a false positive
// (false).
//
// Forwarding rules: an unseen identity always forwards; a seen identity
// forwards only if its counter advanced (a genuine progress report from a
// C-threshold crossing or eviction). A report whose counter did not
// advance is the duplicate-initial-report pattern of §3.6 and is dropped.
func (e *Eliminator) Offer(ev *fevent.Event) bool {
	e.seen++
	now := e.clock()
	if e.cfg.Mode == HashOnCPU {
		// Burn the cycles the ASIC offload saves: recompute the record
		// hash in software. The data-plane-attached hash is deliberately
		// ignored in this mode.
		_ = softwareCRC32C(ev)
	}
	key := ev.Key()
	h := keyHash(ev)
	i := h & e.mask
	for {
		st := &e.slots[i]
		if !st.used {
			break
		}
		if st.hash == h && st.key == key {
			if now-st.lastSeen > e.cfg.Window {
				// Stale entry: treat as a new flow event episode.
				st.lastCount = ev.Count
				st.lastSeen = now
				e.forwarded++
				return true
			}
			st.lastSeen = now
			if ev.Count > st.lastCount {
				st.lastCount = ev.Count
				e.forwarded++
				return true
			}
			e.duplicates++
			return false
		}
		i = (i + 1) & e.mask
	}
	// New identity.
	if e.count >= e.cfg.MaxEntries {
		e.expire(now)
	}
	if (e.count+1)*4 >= len(e.slots)*3 {
		e.grow()
	}
	e.insert(slot{key: key, hash: h, lastCount: ev.Count, lastSeen: now, used: true})
	e.forwarded++
	return true
}

// OfferBatch offers every event of a flushed CEBP batch and returns the
// slice filtered in place to the forwarded events, preserving order, so
// the caller counts suppressions as len(in) - len(out). When the batch's
// trace context tc is sampled the pass is wrapped in a fpelim span
// (Events = offered, Detail = suppressed) and tc's parent advances so the
// export hop chains onto it; unsampled batches pay one flag test.
func (e *Eliminator) OfferBatch(tc *trace.Context, evs []fevent.Event) []fevent.Event {
	var sp trace.Span
	sampled := tc.Sampled()
	if sampled {
		sp = trace.Begin(*tc, trace.StageFPElim)
		sp.Events = uint32(len(evs))
	}
	kept := evs[:0]
	for i := range evs {
		if e.Offer(&evs[i]) {
			kept = append(kept, evs[i])
		}
	}
	if sampled {
		sp.Detail = uint32(len(evs) - len(kept))
		tc.Parent = sp.SpanID
		trace.Finish(&sp)
	}
	return kept
}

// insert places s at the first free slot on its probe chain. The load
// factor is kept under 3/4, so a free slot always exists.
func (e *Eliminator) insert(s slot) {
	i := s.hash & e.mask
	for e.slots[i].used {
		i = (i + 1) & e.mask
	}
	e.slots[i] = s
	e.count++
}

// grow doubles the table and reinserts every live entry using its cached
// hash.
func (e *Eliminator) grow() {
	old := e.slots
	e.slots = make([]slot, 2*len(old))
	e.mask = uint32(len(e.slots) - 1)
	e.count = 0
	for i := range old {
		if old[i].used {
			e.insert(old[i])
		}
	}
}

// expire rebuilds the table without entries older than the window; if
// that frees nothing it clears the table entirely (a coarse but bounded
// fallback, matching the limited memory of a switch CPU).
func (e *Eliminator) expire(now sim.Time) {
	old := e.slots
	e.slots = make([]slot, len(old))
	e.count = 0
	removed := 0
	for i := range old {
		if !old[i].used {
			continue
		}
		if now-old[i].lastSeen > e.cfg.Window {
			removed++
			continue
		}
		e.insert(old[i])
	}
	if removed == 0 && e.count > 0 {
		e.slots = make([]slot, len(old))
		e.count = 0
	}
}

// Len returns the number of remembered identities.
func (e *Eliminator) Len() int { return e.count }

// Stats reports offered, suppressed and forwarded event counts.
func (e *Eliminator) Stats() (seen, duplicates, forwarded uint64) {
	return e.seen, e.duplicates, e.forwarded
}

// crc32cNibble is the 16-entry nibble table for CRC-32C (reflected
// polynomial 0x82f63b78), the classic table layout for memory-constrained
// embedded CPUs.
var crc32cNibble = func() [16]uint32 {
	var t [16]uint32
	for i := range t {
		crc := uint32(i)
		for j := 0; j < 4; j++ {
			if crc&1 != 0 {
				crc = crc>>1 ^ 0x82f63b78
			} else {
				crc >>= 1
			}
		}
		t[i] = crc
	}
	return t
}()

// softwareCRC32C computes the record's CRC-32C with a nibble-table
// implementation comparable to what a switch CPU without hardware CRC and
// without the ASIC offload would run. Kept deliberately un-optimized: it is
// the cost being measured (Fig. 14(b)'s 71.4% of CPU cycles), not a
// utility.
func softwareCRC32C(ev *fevent.Event) uint32 {
	var buf [16]byte
	ev.Flow.PutWire(buf[:13])
	buf[13] = byte(ev.Type)
	buf[14] = byte(ev.DropCode)
	buf[15] = ev.ACLRule
	crc := ^uint32(0)
	for _, b := range buf {
		crc = crc>>4 ^ crc32cNibble[(crc^uint32(b))&0x0f]
		crc = crc>>4 ^ crc32cNibble[(crc^uint32(b>>4))&0x0f]
	}
	return ^crc
}

// Shard returns which of n CPU cores should process an event, using the
// pre-computed hash so sharding itself costs nothing.
func Shard(ev *fevent.Event, n int) int {
	return int(ev.Hash % uint32(n))
}
