package groupcache

import (
	"netseer/internal/fevent"
)

// ACLAggregator counts ACL-deny drops at rule granularity (§3.4): most ACL
// drops are intentional, so reporting one flow event per denied flow would
// flood the collector. Instead NetSeer keeps one counter per rule ID and
// reports the rule with its counter; the rule's own match field describes
// the affected traffic.
type ACLAggregator struct {
	c       uint16
	report  ReportFunc
	counter map[uint8]*aclState
	// scratch mirrors Table.scratch: emit reports a pointer into it so the
	// steady-state path does not allocate.
	scratch fevent.Event
}

type aclState struct {
	ev      fevent.Event
	counter uint32
	target  uint32
}

// NewACLAggregator creates an aggregator reporting every c drops per rule
// (and on first drop).
func NewACLAggregator(c uint16, report ReportFunc) *ACLAggregator {
	if c == 0 {
		panic("groupcache: C must be positive")
	}
	if report == nil {
		panic("groupcache: report must not be nil")
	}
	return &ACLAggregator{c: c, report: report, counter: make(map[uint8]*aclState)}
}

// Offer processes one ACL-denied packet attributed to rule.
func (a *ACLAggregator) Offer(rule uint8, ev *fevent.Event) {
	s := a.counter[rule]
	if s == nil {
		s = &aclState{target: uint32(a.c)}
		s.ev = *ev
		s.ev.DropCode = fevent.DropACLDeny
		s.ev.ACLRule = rule
		a.counter[rule] = s
	}
	s.counter++
	if s.counter == 1 || s.counter >= s.target {
		a.emit(s)
		if s.counter >= s.target {
			s.target += uint32(a.c)
		}
	}
}

func (a *ACLAggregator) emit(s *aclState) {
	a.scratch = s.ev
	if s.counter > 0xffff {
		a.scratch.Count = 0xffff
	} else {
		a.scratch.Count = uint16(s.counter)
	}
	a.report(&a.scratch)
}

// Flush reports the final counter of every rule, in ascending rule id:
// a map's order would change from run to run.
func (a *ACLAggregator) Flush() {
	for rule := 0; rule < 256; rule++ {
		if s := a.counter[uint8(rule)]; s != nil {
			a.emit(s)
		}
	}
}

// RuleCount returns the number of distinct rules seen.
func (a *ACLAggregator) RuleCount() int { return len(a.counter) }
