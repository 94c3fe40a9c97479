package dataplane

import (
	"netseer/internal/pkt"
)

// ACLAction is permit or deny.
type ACLAction uint8

// ACL actions.
const (
	ACLPermit ACLAction = iota
	ACLDeny
)

// ACLRule matches flows by optional exact fields; zero-valued fields are
// wildcards (ports and protocol use explicit Match* flags to permit
// matching on the zero value).
type ACLRule struct {
	ID     uint8
	Action ACLAction

	SrcIP, SrcMask uint32
	DstIP, DstMask uint32

	MatchSrcPort bool
	SrcPort      uint16
	MatchDstPort bool
	DstPort      uint16
	MatchProto   bool
	Proto        uint8
}

// Matches reports whether the rule matches the flow.
func (r *ACLRule) Matches(f pkt.FlowKey) bool {
	if f.SrcIP&r.SrcMask != r.SrcIP&r.SrcMask {
		return false
	}
	if f.DstIP&r.DstMask != r.DstIP&r.DstMask {
		return false
	}
	if r.MatchSrcPort && f.SrcPort != r.SrcPort {
		return false
	}
	if r.MatchDstPort && f.DstPort != r.DstPort {
		return false
	}
	if r.MatchProto && f.Proto != r.Proto {
		return false
	}
	return true
}

// ACLTable is an ordered rule list: first match wins; no match permits.
type ACLTable struct {
	rules []ACLRule
}

// Add appends a rule (lowest priority last).
func (t *ACLTable) Add(r ACLRule) { t.rules = append(t.rules, r) }

// Len returns the rule count.
func (t *ACLTable) Len() int { return len(t.rules) }

// Lookup returns the first matching rule, or nil for default-permit.
func (t *ACLTable) Lookup(f pkt.FlowKey) *ACLRule {
	for i := range t.rules {
		if t.rules[i].Matches(f) {
			return &t.rules[i]
		}
	}
	return nil
}
