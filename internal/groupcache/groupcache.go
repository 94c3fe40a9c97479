// Package groupcache implements NetSeer's event-packet deduplication
// (Algorithm 1, §3.4): a direct-indexed exact-match hash table that
// aggregates consecutive event packets of the same flow event into a single
// flow event with a packet counter.
//
// Properties the paper requires, preserved here and verified by tests:
//
//   - Zero false negatives: the first packet of every flow event is always
//     reported (either it installs into an empty/evicted slot — reported —
//     or it matches the resident entry, whose own first packet was
//     reported).
//   - Minimal false positives: a collision evicts the resident entry; if
//     the evicted event is still live, its next packet re-installs and
//     re-reports, creating a duplicate initial report (a data false
//     positive) that the switch CPU removes later (§3.6).
//   - Periodic refresh: an aggregated event is re-reported every C packets
//     so long-running events remain visible and counters reach the backend.
package groupcache

import (
	"netseer/internal/fevent"
)

// DefaultSlots is the default table size per event type; the paper sizes
// these to the SRAM available per stage.
const DefaultSlots = 4096

// DefaultC is the default counter-report interval (the constant C of
// Algorithm 1).
const DefaultC = 128

// ReportFunc receives every produced flow event. The *fevent.Event is only
// valid for the duration of the call; implementations must copy it if they
// retain it.
type ReportFunc func(e *fevent.Event)

// Table is a group-caching table for one event type. It is not safe for
// concurrent use; in the simulated switch every table belongs to a single
// pipeline.
type Table struct {
	slots []entry
	// mask is len(slots)-1 when the size is a power of two (the common
	// case: DefaultSlots and the paper's SRAM sizings), letting Offer
	// replace the 32-bit modulo with an AND; -1 otherwise.
	mask   int
	c      uint16
	report ReportFunc
	// scratch is the reusable out-parameter for emit: report receives a
	// pointer into it (valid only for the call, per the ReportFunc
	// contract), so emitting never heap-allocates.
	scratch fevent.Event

	// Stats. Plain counters: the table is single-owner (one pipeline) and
	// Offer's ~16 ns budget leaves no room for atomic adds; scrapes read
	// owner-published mirrors instead (see internal/obs).
	ingested  uint64 // event packets offered
	reported  uint64 // flow events emitted
	merged    uint64 // packets absorbed into an existing entry
	evictions uint64 // collisions that replaced a live entry
	rereports uint64 // periodic C-crossing re-reports of aggregated events
}

type entry struct {
	used    bool
	key     fevent.Key
	ev      fevent.Event // representative event (detail fields from installer)
	counter uint16
	target  uint16
}

// New creates a table with the given number of slots and counter interval
// C, delivering produced flow events to report. Panics if slots <= 0,
// c == 0 or report is nil, since a silently dropped event would violate
// the zero-false-negative contract.
func New(slots int, c uint16, report ReportFunc) *Table {
	if slots <= 0 {
		panic("groupcache: slots must be positive")
	}
	if c == 0 {
		panic("groupcache: C must be positive")
	}
	if report == nil {
		panic("groupcache: report must not be nil")
	}
	mask := -1
	if slots&(slots-1) == 0 {
		mask = slots - 1
	}
	return &Table{slots: make([]entry, slots), mask: mask, c: c, report: report}
}

// Offer processes one event packet (Algorithm 1). ev's Count field is
// ignored on input; produced events carry the aggregated count.
func (t *Table) Offer(ev *fevent.Event) {
	t.ingested++
	key := ev.Key()
	var idx int
	if t.mask >= 0 {
		idx = int(ev.Hash) & t.mask
	} else {
		idx = int(ev.Hash % uint32(len(t.slots)))
	}
	s := &t.slots[idx]
	if s.used && s.key == key {
		// Same flow event: aggregate (lines 3–7).
		s.counter++
		s.ev.QueueLatencyUs = maxU16(s.ev.QueueLatencyUs, ev.QueueLatencyUs)
		t.merged++
		if s.counter >= s.target {
			t.rereports++
			t.emit(s)
			s.target += t.c
		}
		return
	}
	// Different flow event: install and report (lines 8–12).
	if s.used {
		t.evictions++
		// Report the evicted event so its final count is not lost.
		t.emit(s)
	}
	s.used = true
	s.key = key
	s.ev = *ev
	s.counter = 1
	s.target = t.c
	t.emit(s)
}

func (t *Table) emit(s *entry) {
	t.scratch = s.ev
	t.scratch.Count = s.counter
	t.reported++
	t.report(&t.scratch)
}

// Flush reports and clears every resident entry, delivering final counters.
// The simulated switch calls this at the end of a run (the hardware
// equivalent is the periodic refresh by C crossing).
func (t *Table) Flush() {
	for i := range t.slots {
		s := &t.slots[i]
		if s.used {
			t.emit(s)
			s.used = false
		}
	}
}

// Stats reports the table's counters: offered packets, emitted flow
// events, merged (suppressed) packets, and eviction count.
func (t *Table) Stats() (ingested, reported, merged, evictions uint64) {
	return t.ingested, t.reported, t.merged, t.evictions
}

// Rereports returns how many emitted events were periodic C-crossing
// refreshes of a resident aggregate (as opposed to installs/evictions) —
// the "long-running events stay visible" side of Algorithm 1.
func (t *Table) Rereports() uint64 { return t.rereports }

// Len returns the number of live entries.
func (t *Table) Len() int {
	n := 0
	for i := range t.slots {
		if t.slots[i].used {
			n++
		}
	}
	return n
}

// Slots returns the table capacity.
func (t *Table) Slots() int { return len(t.slots) }

func maxU16(a, b uint16) uint16 {
	if a > b {
		return a
	}
	return b
}
