// Package fevent defines NetSeer's flow events and their exact wire
// encoding: every event is reported in a fixed 24-byte record (§4 of the
// paper: 13 B flow + event-specific fields + 2 B counter + 4 B pre-computed
// hash), and records are shipped in batches of ~50 prefixed by a small
// batch header naming the reporting switch.
package fevent

import (
	"encoding/binary"
	"fmt"
	"strconv"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Type enumerates the four flow-event classes of §3.1.
type Type uint8

// Event types.
const (
	// TypeDrop covers every packet-drop class of Figure 4 (pipeline, MMU
	// congestion, inter-switch/card, …) discriminated by DropCode.
	TypeDrop Type = iota + 1
	// TypeCongestion is queuing delay above threshold.
	TypeCongestion
	// TypePathChange is a new flow or a flow whose (ingress, egress) port
	// pair changed.
	TypePathChange
	// TypePause is a packet arriving to a PFC-paused queue.
	TypePause
	// TypeHeavyHitter is the onset of a heavy-hitter flow: the count-min
	// estimate for the flow first crossed the configured packet threshold
	// (sketch stage, beyond the paper's fixed event set).
	TypeHeavyHitter
	// TypeTopKChurn is a flow entering the space-saving top-K table by
	// evicting the current minimum; SketchErr carries the inherited
	// overestimation bound (the evicted minimum counter).
	TypeTopKChurn
	// TypeAggSpike is a per-link aggregate byte spike: the bytes forwarded
	// through one egress port within one sketch window crossed the spike
	// threshold. The flow field is zero — the link, not a flow, is the
	// subject — and Window stamps which window fired.
	TypeAggSpike

	numTypes = 7
)

// Types lists all event types, for iteration in experiments.
var Types = []Type{TypeDrop, TypeCongestion, TypePathChange, TypePause,
	TypeHeavyHitter, TypeTopKChurn, TypeAggSpike}

// String names the type.
func (t Type) String() string {
	switch t {
	case TypeDrop:
		return "drop"
	case TypeCongestion:
		return "congestion"
	case TypePathChange:
		return "path-change"
	case TypePause:
		return "pause"
	case TypeHeavyHitter:
		return "heavy-hitter"
	case TypeTopKChurn:
		return "topk-churn"
	case TypeAggSpike:
		return "agg-spike"
	default:
		return fmt.Sprintf("type(%d)", uint8(t))
	}
}

// Valid reports whether t is one of the defined types.
func (t Type) Valid() bool { return t >= TypeDrop && t <= TypeAggSpike }

// DropCode encodes the drop reason taxonomy of Figure 4.
type DropCode uint8

// Drop reasons.
const (
	DropNone          DropCode = iota
	DropParityError            // table lookup miss caused by memory bit flip
	DropPortDown               // target port/link/switch down
	DropLinkDown               // link down at ingress
	DropACLDeny                // blocked by an ACL rule
	DropTTLExpired             // forwarding loop: TTL reached 0
	DropNoRoute                // routing table miss (blackhole)
	DropMTUExceeded            // larger-than-MTU packet
	DropMMUCongestion          // queue/buffer full in the MMU
	DropInterSwitch            // silent drop or corruption on a link
	DropInterCard              // drop between boards of a multi-card switch
	DropASICFailure            // malfunctioning ASIC (detected via syslog)
	DropMMUFailure             // malfunctioning MMU (detected via probing)
	DropCorruption             // frame damaged in flight (dropped at MAC)
)

// String names the drop code.
func (c DropCode) String() string {
	names := [...]string{
		"none", "parity-error", "port-down", "link-down", "acl-deny",
		"ttl-expired", "no-route", "mtu-exceeded", "mmu-congestion",
		"inter-switch", "inter-card", "asic-failure", "mmu-failure",
		"corruption",
	}
	if int(c) < len(names) {
		return names[c]
	}
	return fmt.Sprintf("drop(%d)", uint8(c))
}

// IsPipeline reports whether the code is one of the pipeline-drop reasons
// (as opposed to congestion or inter-switch drops).
func (c DropCode) IsPipeline() bool {
	switch c {
	case DropParityError, DropPortDown, DropLinkDown, DropACLDeny,
		DropTTLExpired, DropNoRoute, DropMTUExceeded:
		return true
	}
	return false
}

// Event is one flow event. The dedup/report path treats the combination
// returned by Key as the event identity; Count accumulates packets merged
// into this flow event by group caching.
type Event struct {
	Type Type
	Flow pkt.FlowKey

	// SwitchID identifies the reporting device (carried in the batch
	// header on the wire, not in the per-event record).
	SwitchID uint16
	// Timestamp is when the batch carrying this event left the data plane.
	Timestamp sim.Time

	// IngressPort / EgressPort are valid for drop and path-change events;
	// EgressPort also for congestion and pause.
	IngressPort uint8
	EgressPort  uint8
	// Queue is the egress queue, for congestion and pause events.
	Queue uint8
	// QueueLatencyUs is the measured queuing delay in microseconds, for
	// congestion events.
	QueueLatencyUs uint16
	// DropCode is the drop reason, for drop events.
	DropCode DropCode
	// ACLRule is the rule identifier for DropACLDeny events, which NetSeer
	// aggregates per rule rather than per flow (§3.4).
	ACLRule uint8
	// Window is the sketch window index, for aggregate-spike events.
	Window uint16
	// SketchErr is the space-saving overestimation bound inherited at table
	// entry (the evicted minimum), for top-K churn events.
	SketchErr uint16

	// Count is the number of packets aggregated into this event so far.
	Count uint16
	// Hash is the CRC-32C of the flow key, pre-computed in the data plane
	// so the switch CPU can index without hashing (§3.6).
	Hash uint32
}

// Key is the dedup identity of an event: same-key packets are aggregated
// into one flow event by group caching, and the switch CPU suppresses
// repeated initial reports per key. It is comparable.
type Key struct {
	Type     Type
	Flow     pkt.FlowKey
	DropCode DropCode
	ACLRule  uint8
	// In/Out are part of the identity for path-change events only: the
	// same flow on a *different* path is a different event, never a
	// duplicate. Out alone identifies the link for aggregate-spike events.
	In, Out uint8
	// Win is part of the identity for aggregate-spike events only: the
	// same link spiking in a *later* window is a new event.
	Win uint16
}

// Key returns the dedup identity of e. For ACL drops the flow field is
// zeroed: the paper aggregates those at ACL-rule granularity because the
// rule's match already describes the victim traffic.
func (e *Event) Key() Key {
	k := Key{Type: e.Type, DropCode: e.DropCode, ACLRule: e.ACLRule}
	if !(e.Type == TypeDrop && e.DropCode == DropACLDeny) {
		k.Flow = e.Flow
	}
	if e.Type == TypePathChange {
		k.In, k.Out = e.IngressPort, e.EgressPort
	}
	if e.Type == TypeAggSpike {
		k.Out, k.Win = e.EgressPort, e.Window
	}
	return k
}

// appendField appends label followed by v in decimal.
func appendField[T uint8 | uint16](b []byte, label string, v T) []byte {
	return strconv.AppendUint(append(b, label...), uint64(v), 10)
}

// AppendTo appends the compact rendering String returns, allocating
// nothing: the query server renders one per result row.
func (e *Event) AppendTo(b []byte) []byte {
	if !e.Type.Valid() {
		return append(appendField(b, "event(type=", uint8(e.Type)), ')')
	}
	b = append(b, e.Type.String()...)
	if e.Type == TypeDrop {
		b = append(append(append(b, '['), e.DropCode.String()...), ']')
	}
	b = appendField(b, " sw=", e.SwitchID)
	if e.Type != TypeAggSpike {
		b = e.Flow.AppendTo(append(b, ' '))
	}
	switch e.Type {
	case TypeDrop, TypeHeavyHitter:
		b = appendField(b, " in=", e.IngressPort)
		b = appendField(b, " out=", e.EgressPort)
		b = appendField(b, " n=", e.Count)
	case TypeCongestion:
		b = appendField(b, " port=", e.EgressPort)
		b = appendField(b, " q=", e.Queue)
		b = append(appendField(b, " lat=", e.QueueLatencyUs), "us"...)
		b = appendField(b, " n=", e.Count)
	case TypePathChange:
		b = appendField(b, " in=", e.IngressPort)
		b = appendField(b, " out=", e.EgressPort)
	case TypePause:
		b = appendField(b, " port=", e.EgressPort)
		b = appendField(b, " q=", e.Queue)
		b = appendField(b, " n=", e.Count)
	case TypeTopKChurn:
		b = appendField(b, " out=", e.EgressPort)
		b = appendField(b, " n=", e.Count)
		b = appendField(b, " err=", e.SketchErr)
	case TypeAggSpike:
		b = appendField(b, " port=", e.EgressPort)
		b = appendField(b, " win=", e.Window)
		b = appendField(b, " kB=", e.Count)
	}
	return b
}

// String renders the event compactly for logs and test failures.
func (e *Event) String() string {
	var buf [128]byte
	return string(e.AppendTo(buf[:0]))
}

// RecordLen is the exact on-wire size of one event record: 1 B type tag,
// 13 B flow, 4 B event-specific detail, 2 B counter, 4 B hash.
const RecordLen = 24

// Offsets into a record, for readers that index and filter stored records
// without decoding them: the 13 B flow key, the tail past it (detail,
// count, hash), where a drop record keeps its reason, and the hash.
const (
	RecordFlowOff     = 1
	RecordTailOff     = RecordFlowOff + pkt.FlowKeyLen
	RecordTailLen     = RecordLen - RecordTailOff
	RecordDropCodeOff = 16
	RecordHashOff     = RecordLen - 4
)

// AppendRecord appends the 24-byte record encoding of e to b.
//
// Layout: type(1) | flow(13) | detail(4) | count(2) | hash(4), big-endian;
// the detail bytes are those Detail returns.
func (e *Event) AppendRecord(b []byte) []byte {
	var r [RecordLen]byte
	r[0] = byte(e.Type)
	e.Flow.PutWire(r[1:14])
	binary.BigEndian.PutUint32(r[14:18], e.Detail())
	binary.BigEndian.PutUint16(r[18:20], e.Count)
	binary.BigEndian.PutUint32(r[20:24], e.Hash)
	return append(b, r[:]...)
}

// Detail returns the 4 detail bytes of e's record as one big-endian
// word; the bytes e's type does not define are zero. By type:
//
//	drop:         ingress(1) egress(1) dropCode(1) aclRule(1)
//	congestion:   egress(1) queue(1) latencyUs(2)
//	path-change:  ingress(1) egress(1) 0(2)
//	pause:        egress(1) queue(1) 0(2)
//	heavy-hitter: ingress(1) egress(1) 0(2)
//	topk-churn:   egress(1) 0(1) sketchErr(2)
//	agg-spike:    egress(1) 0(1) window(2)
func (e *Event) Detail() uint32 {
	switch e.Type {
	case TypeDrop:
		return uint32(e.IngressPort)<<24 | uint32(e.EgressPort)<<16 | uint32(e.DropCode)<<8 | uint32(e.ACLRule)
	case TypeCongestion:
		return uint32(e.EgressPort)<<24 | uint32(e.Queue)<<16 | uint32(e.QueueLatencyUs)
	case TypePathChange, TypeHeavyHitter:
		return uint32(e.IngressPort)<<24 | uint32(e.EgressPort)<<16
	case TypePause:
		return uint32(e.EgressPort)<<24 | uint32(e.Queue)<<16
	case TypeTopKChurn:
		return uint32(e.EgressPort)<<24 | uint32(e.SketchErr)
	case TypeAggSpike:
		return uint32(e.EgressPort)<<24 | uint32(e.Window)
	}
	return 0
}

// SetDetail sets the detail fields of e's type from the word Detail
// returns and zeroes the others.
func (e *Event) SetDetail(d uint32) {
	e.IngressPort, e.EgressPort, e.Queue = 0, 0, 0
	e.QueueLatencyUs, e.DropCode, e.ACLRule = 0, DropNone, 0
	e.Window, e.SketchErr = 0, 0
	switch e.Type {
	case TypeDrop:
		e.IngressPort, e.EgressPort, e.DropCode, e.ACLRule = uint8(d>>24), uint8(d>>16), DropCode(d>>8), uint8(d)
	case TypeCongestion:
		e.EgressPort, e.Queue, e.QueueLatencyUs = uint8(d>>24), uint8(d>>16), uint16(d)
	case TypePathChange, TypeHeavyHitter:
		e.IngressPort, e.EgressPort = uint8(d>>24), uint8(d>>16)
	case TypePause:
		e.EgressPort, e.Queue = uint8(d>>24), uint8(d>>16)
	case TypeTopKChurn:
		e.EgressPort, e.SketchErr = uint8(d>>24), uint16(d)
	case TypeAggSpike:
		e.EgressPort, e.Window = uint8(d>>24), uint16(d)
	}
}

// DecodeRecord parses one 24-byte record into e, overwriting all per-record
// fields (SwitchID and Timestamp are left as they are: they come from the
// batch header).
func (e *Event) DecodeRecord(b []byte) error {
	if len(b) < RecordLen {
		return fmt.Errorf("fevent: record truncated: %d bytes", len(b))
	}
	t := Type(b[0])
	if !t.Valid() {
		return fmt.Errorf("fevent: invalid event type %d", b[0])
	}
	e.Type = t
	e.Flow.SetWire((*[pkt.FlowKeyLen]byte)(b[RecordFlowOff:]))
	e.SetDetail(binary.BigEndian.Uint32(b[RecordTailOff:]))
	e.Count = binary.BigEndian.Uint16(b[RecordTailOff+4:])
	e.Hash = binary.BigEndian.Uint32(b[RecordHashOff:])
	return nil
}
