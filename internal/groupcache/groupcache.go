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
	"encoding/binary"

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
	// an Offer takes ~10 ns (BenchmarkGroupCacheOffer, 2-CPU x86-64
	// host), which leaves no room for atomic adds; scrapes read
	// owner-published mirrors instead (see internal/obs).
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
	det     [4]byte // the record's detail bytes, laid out as by AppendRecord
	counter uint16
	target  uint16
	typ     fevent.Type // 0: the slot is empty
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

// Offer processes one event packet (Algorithm 1). ev.Type must be a
// valid type. A table keeps only what the event's record carries — type,
// flow, the detail fields of its type and hash — so an emitted event has
// every other field zero: SwitchID and Timestamp are the report func's to
// stamp. ev's Count field is ignored on input; produced events carry the
// aggregated count.
func (t *Table) Offer(ev *fevent.Event) {
	t.ingested++
	var idx int
	if t.mask >= 0 {
		idx = int(ev.Hash) & t.mask
	} else {
		idx = int(ev.Hash % uint32(len(t.slots)))
	}
	s := &t.slots[idx]
	if s.typ == ev.Type && s.holds(ev) {
		// Same flow event: aggregate (lines 3–7).
		s.counter++
		if ev.Type == fevent.TypeCongestion && ev.QueueLatencyUs > binary.BigEndian.Uint16(s.det[2:]) {
			binary.BigEndian.PutUint16(s.det[2:], ev.QueueLatencyUs)
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
	s.install(ev)
	s.counter = 1
	s.target = t.c
	t.emit(s)
}

// holds reports whether the resident event, of ev's type, has ev's Key:
// the flow (which an ACL deny's Key leaves out) and the detail bytes the
// type's Key takes.
func (s *entry) holds(ev *fevent.Event) bool {
	switch ev.Type {
	case fevent.TypeDrop:
		return s.det[2] == byte(ev.DropCode) && s.det[3] == ev.ACLRule &&
			(ev.DropCode == fevent.DropACLDeny || s.flow == ev.Flow)
	case fevent.TypePathChange:
		return s.det[0] == ev.IngressPort && s.det[1] == ev.EgressPort && s.flow == ev.Flow
	case fevent.TypeAggSpike:
		return s.det[0] == ev.EgressPort && binary.BigEndian.Uint16(s.det[2:]) == ev.Window && s.flow == ev.Flow
	}
	return s.flow == ev.Flow
}

// install stores ev's record fields in the slot.
func (s *entry) install(ev *fevent.Event) {
	s.typ, s.flow, s.hash = ev.Type, ev.Flow, ev.Hash
	d := &s.det
	*d = [4]byte{}
	switch ev.Type {
	case fevent.TypeDrop:
		d[0], d[1], d[2], d[3] = ev.IngressPort, ev.EgressPort, byte(ev.DropCode), ev.ACLRule
	case fevent.TypeCongestion:
		d[0], d[1] = ev.EgressPort, ev.Queue
		binary.BigEndian.PutUint16(d[2:], ev.QueueLatencyUs)
	case fevent.TypePathChange, fevent.TypeHeavyHitter:
		d[0], d[1] = ev.IngressPort, ev.EgressPort
	case fevent.TypePause:
		d[0], d[1] = ev.EgressPort, ev.Queue
	case fevent.TypeTopKChurn:
		d[0] = ev.EgressPort
		binary.BigEndian.PutUint16(d[2:], ev.SketchErr)
	case fevent.TypeAggSpike:
		d[0] = ev.EgressPort
		binary.BigEndian.PutUint16(d[2:], ev.Window)
	}
}

// emit rebuilds the resident event into the zeroed scratch event and
// reports it with the slot's count.
func (t *Table) emit(s *entry) {
	e := &t.scratch
	// Zeroed in place, then field by field: a composite literal is built
	// on the stack and copied in wide, stalling on its own narrow stores.
	*e = fevent.Event{}
	e.Type, e.Flow, e.Hash, e.Count = s.typ, s.flow, s.hash, s.counter
	d := &s.det
	switch s.typ {
	case fevent.TypeDrop:
		e.IngressPort, e.EgressPort, e.DropCode, e.ACLRule = d[0], d[1], fevent.DropCode(d[2]), d[3]
	case fevent.TypeCongestion:
		e.EgressPort, e.Queue, e.QueueLatencyUs = d[0], d[1], binary.BigEndian.Uint16(d[2:])
	case fevent.TypePathChange, fevent.TypeHeavyHitter:
		e.IngressPort, e.EgressPort = d[0], d[1]
	case fevent.TypePause:
		e.EgressPort, e.Queue = d[0], d[1]
	case fevent.TypeTopKChurn:
		e.EgressPort, e.SketchErr = d[0], binary.BigEndian.Uint16(d[2:])
	case fevent.TypeAggSpike:
		e.EgressPort, e.Window = d[0], binary.BigEndian.Uint16(d[2:])
	}
	t.reported++
	t.report(e)
}

// Flush reports and clears every resident entry, delivering final counters.
// The simulated switch calls this at the end of a run (the hardware
// equivalent is the periodic refresh by C crossing).
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

// Slots returns the table capacity.
func (t *Table) Slots() int { return len(t.slots) }
