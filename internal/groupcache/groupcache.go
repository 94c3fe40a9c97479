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
	"netseer/internal/pkt"
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
	// slots is allocated at the first Offer, n slots long: a switch pays
	// for the table of an event type only once that type occurs, and most
	// switches never see a pause. Until then the table is empty.
	slots []entry
	n     int
	// mask is n-1 when the size is a power of two (the common case:
	// DefaultSlots and the paper's SRAM sizings), letting Offer replace
	// the 32-bit modulo with an AND; -1 otherwise.
	mask   int
	c      uint16
	report ReportFunc
	// scratch is the reusable out-parameter for emit: report receives a
	// pointer into it (valid only for the call, per the ReportFunc
	// contract), so emitting never heap-allocates.
	scratch fevent.Event

	// Stats. Plain counters: the table is single-owner (one pipeline) and
	// an Offer takes ~10 ns (BenchmarkGroupCacheOffer, 2-CPU x86-64
	// host), which leaves no room for atomic adds; scrapes read the
	// owner-published core.Stats sum instead (see internal/obs).
	ingested  uint64 // event packets offered
	reported  uint64 // flow events emitted
	merged    uint64 // packets absorbed into an existing entry
	evictions uint64 // collisions that replaced a live entry
	rereports uint64 // periodic C-crossing re-reports of aggregated events
}

// entry is one slot: what the flow event's 24 B record carries (§3.4), in
// native form, plus the slot's counter and its next report target — 32 B,
// two slots to a cache line (TestSlotIsRecordWidth).
type entry struct {
	flow    pkt.FlowKey
	hash    uint32
	det     uint32 // the record's detail bytes (fevent.Event.Detail)
	counter uint16
	target  uint16
	typ     fevent.Type // 0: the slot is empty
}

// keyDetail holds, per type, the detail bits the type's Key reads: the
// bits a slot must match besides type and flow.
var keyDetail = func() (m [256]uint32) {
	for _, t := range fevent.Types {
		base := fevent.Event{Type: t}
		for bit := uint32(1); bit != 0; bit <<= 1 {
			e := base
			e.SetDetail(bit)
			if e.Key() != base.Key() {
				m[t] |= bit
			}
		}
	}
	return m
}()

// latency is the detail field of a congestion event whose maximum a slot
// keeps across merged packets.
var latency = (&fevent.Event{Type: fevent.TypeCongestion, QueueLatencyUs: 0xffff}).Detail()

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
	return &Table{n: slots, mask: mask, c: c, report: report}
}

// Offer processes one event packet (Algorithm 1). ev.Type must be a
// valid type. A table keeps only what the event's record carries — type,
// flow, the detail fields of its type and hash — so an emitted event has
// every other field zero: SwitchID and Timestamp are the report func's to
// stamp. ev's Count field is ignored on input; produced events carry the
// aggregated count.
func (t *Table) Offer(ev *fevent.Event) {
	t.ingested++
	if t.slots == nil {
		t.slots = make([]entry, t.n)
	}
	var idx int
	if t.mask >= 0 {
		idx = int(ev.Hash) & t.mask
	} else {
		idx = int(ev.Hash % uint32(t.n))
	}
	s := &t.slots[idx]
	d := ev.Detail()
	// Same Key: the type, the detail bits the type's Key reads and the
	// flow, which an ACL deny's Key leaves out.
	if s.typ == ev.Type && (s.det^d)&keyDetail[ev.Type] == 0 &&
		(s.flow == ev.Flow || ev.Type == fevent.TypeDrop && ev.DropCode == fevent.DropACLDeny) {
		// Same flow event: aggregate (lines 3–7).
		s.counter++
		if ev.Type == fevent.TypeCongestion && d&latency > s.det&latency {
			s.det = s.det&^latency | d&latency
		}
		t.merged++
		if s.counter >= s.target {
			t.rereports++
			t.emit(s)
			s.target += t.c
		}
		return
	}
	// Different flow event: install and report (lines 8–12).
	if s.typ != 0 {
		t.evictions++
		// Report the evicted event so its final count is not lost.
		t.emit(s)
	}
	s.typ, s.flow, s.hash, s.det = ev.Type, ev.Flow, ev.Hash, d
	s.counter = 1
	s.target = t.c
	t.emit(s)
}

// emit rebuilds the resident event into the zeroed scratch event and
// reports it with the slot's count.
func (t *Table) emit(s *entry) {
	e := &t.scratch
	// Zeroed in place, then field by field: a composite literal is built
	// on the stack and copied in wide, stalling on its own narrow stores.
	*e = fevent.Event{}
	e.Type, e.Flow, e.Hash, e.Count = s.typ, s.flow, s.hash, s.counter
	e.SetDetail(s.det)
	t.reported++
	t.report(e)
}

// Flush reports and clears every resident entry, delivering final counters.
// The simulated switch calls this at the end of a run (the hardware
// equivalent is the periodic refresh by C crossing). On a table never
// offered an event it does nothing.
func (t *Table) Flush() {
	for i := range t.slots {
		s := &t.slots[i]
		if s.typ != 0 {
			t.emit(s)
			s.typ = 0
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
		if t.slots[i].typ != 0 {
			n++
		}
	}
	return n
}

// Slots returns the table capacity, allocated or not.
func (t *Table) Slots() int { return t.n }
