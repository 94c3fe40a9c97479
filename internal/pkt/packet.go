package pkt

import (
	"fmt"

	"netseer/internal/sim"
)

// Kind discriminates the packet classes that traverse the simulated fabric.
type Kind uint8

// Packet kinds.
const (
	// KindData is ordinary application traffic.
	KindData Kind = iota
	// KindPFC is an IEEE 802.1Qbb priority flow control frame (link-local).
	KindPFC
	// KindLossNotify is a NetSeer downstream→upstream gap notification.
	KindLossNotify
	// KindEventBatch is a CEBP carrying batched flow events toward the
	// switch CPU / collector.
	KindEventBatch
	// KindProbe is active-probe traffic (Pingmesh, reproduction probes).
	KindProbe
	// KindMirror is a truncated telemetry copy (EverFlow/NetSight).
	KindMirror
)

// String names the kind for logs and test failures.
func (k Kind) String() string {
	switch k {
	case KindData:
		return "data"
	case KindPFC:
		return "pfc"
	case KindLossNotify:
		return "loss-notify"
	case KindEventBatch:
		return "event-batch"
	case KindProbe:
		return "probe"
	case KindMirror:
		return "mirror"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Packet is the unit the simulator moves between NICs, links and switch
// pipelines. The struct carries decoded header state; byte-accurate
// encodings of the NetSeer-specific fields live in the codecs of this
// package and of internal/fevent.
type Packet struct {
	// ID is unique per simulation run and is used only for ground-truth
	// bookkeeping; it does not exist on the wire.
	ID uint64

	Kind Kind
	// Flow is fixed once the packet is sent: every hop reads its hash
	// from the cache FlowHash fills on first use.
	Flow FlowKey
	// hash caches Flow.Hash() while hashed is set (see FlowHash). Both
	// sit in the struct's padding, so the cache costs no size.
	hash uint32

	// WireLen is the total on-wire length in bytes, including all headers
	// (and the NetSeer tag when present).
	WireLen int

	TTL      uint8
	Priority uint8 // 0-7, selects the egress queue

	// SeqTag is the NetSeer inter-switch consecutive packet ID (§3.3),
	// valid only while HasSeqTag is set. It is inserted by the upstream
	// egress and stripped by the downstream ingress.
	SeqTag    uint32
	HasSeqTag bool

	// Corrupt marks the packet as damaged in flight; the downstream MAC
	// drops it before the pipeline sees its headers (the headers in this
	// struct are then untrustworthy, exactly like a real corrupted frame).
	Corrupt bool

	// released is set while the packet sits handed back to a Pool.
	released bool
	hashed   bool

	// Payload carries the encoded body of control packets (loss
	// notifications, event batches, probe echo state). Nil for plain data.
	Payload []byte

	// PFC holds the decoded pause frame for KindPFC packets.
	PFC *PFCFrame

	// SentAt is stamped by the sending NIC; IngressAt and EnqueuedAt are
	// per-switch scratch timestamps used to meter queuing delay, reset at
	// each hop.
	SentAt     sim.Time
	IngressAt  sim.Time
	EnqueuedAt sim.Time

	// IngressPort is per-switch scratch: the port the packet arrived on.
	IngressPort int
}

// FlowHash returns Flow.Hash(), computed on first use and cached in the
// packet: the data plane hashes a packet's flow once in its lifetime and
// every hop's ECMP, path table and event records reuse it (§3.5–3.6).
func (p *Packet) FlowHash() uint32 {
	if !p.hashed {
		p.hash, p.hashed = p.Flow.Hash(), true
	}
	return p.hash
}

// MinEthernetFrame is the minimum Ethernet frame size in bytes, the wire
// size of the fabric's control frames (PFC pauses, loss notifications).
const MinEthernetFrame = 64

// MaxEthernetFrame is the standard (non-jumbo) MTU-bounded frame size used
// by the simulated fabric.
const MaxEthernetFrame = 1518
