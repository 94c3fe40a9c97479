// Package trace implements deterministic head-sampled batch traces that
// follow a CEBP batch end-to-end across process boundaries: batcher pop,
// false-positive elimination, exporter enqueue/retransmit/failover,
// fabric re-route, shard ingest, WAL append→fsync, store indexing, and
// rebalance handoff.
//
// The design mirrors the observability split of internal/obs: the hot
// stages pay only integer arithmetic when a batch is unsampled, and a
// handful of atomic stores into a fixed-capacity per-stage ring when it
// is. Nothing on the record path allocates, so the zero-alloc pins
// (AllocsPerRun tests) hold with tracing compiled in and sampling enabled.
//
// A trace context is 17 bytes — trace ID, parent span ID, flags — and
// rides in every batch frame after the sequence word, all zero when the
// batch is untraced (see internal/collector/frame.go). The sampling
// decision is made once at the origin switch, deterministically from
// (switch ID, flush ordinal), and carried in the flags byte; downstream
// stages never re-decide, so one batch is either traced at every hop or
// at none.
package trace

import (
	"sync/atomic"
	"time"
)

// Flag bits of Context.Flags.
const (
	// FlagSampled marks a batch whose spans every stage records.
	FlagSampled = 1 << 0
)

// CtxWireLen is the encoded size of a Context inside a batch frame:
// 8-byte trace ID, 8-byte parent span ID, 1 flags byte.
const CtxWireLen = 17

// Context is the fixed-size trace context a batch carries across
// process boundaries. The zero Context means "untraced": no ID was ever
// assigned.
type Context struct {
	TraceID uint64
	Parent  uint64 // span ID of the last recorded hop, 0 at the origin
	Flags   uint8
}

// Valid reports whether a trace ID was assigned at all.
func (c Context) Valid() bool { return c.TraceID != 0 }

// Sampled reports whether stages should record spans for this batch.
func (c Context) Sampled() bool { return c.Flags&FlagSampled != 0 }

// sampleEvery is the head-sampling modulus: a new trace is sampled when
// its ID ≡ 0 (mod sampleEvery). 1 samples everything, 0 disables
// sampling entirely (contexts are still assigned, so exemplars and
// forced slow-batch capture keep working).
var sampleEvery atomic.Uint64

// DefaultSampleEvery samples one batch in 16 — cheap enough to leave on
// everywhere, frequent enough that every ring keeps recent exemplars
// reconstructable.
const DefaultSampleEvery = 16

func init() {
	sampleEvery.Store(DefaultSampleEvery)
}

// SlowThreshold is the forced-capture threshold, three orders of
// magnitude above a healthy store-index pass: a hop that takes at least
// this long records its span even when the batch is unsampled, so the
// pathological batches — the ones worth tracing — are captured
// regardless of the sampling modulus. Contexts are always assigned
// (only the sampled flag is probabilistic), so a forced span still
// carries a real trace ID and joins exemplar lookups.
const SlowThreshold = time.Millisecond

// SetSampleEvery sets the head-sampling modulus for new contexts:
// 1 traces every batch, n traces one in n, 0 disables sampling.
func SetSampleEvery(n uint64) { sampleEvery.Store(n) }

// SampleEvery returns the current head-sampling modulus.
func SampleEvery() uint64 { return sampleEvery.Load() }

// splitmix64 is the SplitMix64 finalizer: a cheap bijective mixer whose
// output is uniform enough that "ID mod sampleEvery" is an unbiased
// sampling decision even though the input is a dense counter.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NewContext derives the deterministic trace context for the n-th batch
// flushed by switch sw. The ID is a pure function of (sw, n), so a
// replayed simulation assigns identical IDs and the sampling decision is
// reproducible; it is never zero (zero means untraced).
func NewContext(sw uint16, n uint64) Context {
	id := splitmix64(uint64(sw)<<48 ^ n)
	if id == 0 {
		id = 1
	}
	c := Context{TraceID: id}
	if every := sampleEvery.Load(); every == 1 || (every > 1 && id%every == 0) {
		c.Flags |= FlagSampled
	}
	return c
}

// HandoffTraceID derives the trace ID both sides of rebalance transfer
// rb record their handoff spans under: the source's capture span and the
// destination's import span share it, so one trace query shows the whole
// cutover. Deterministic (the coordinator retries transfers; a retried
// step must land in the same trace) and never zero.
func HandoffTraceID(rb uint64) uint64 {
	id := splitmix64(rb ^ 0xfe7e1e8e7a0ff5e7)
	if id == 0 {
		id = 1
	}
	return id
}

// PutWire encodes c into dst, which must be at least CtxWireLen bytes.
func (c Context) PutWire(dst []byte) {
	_ = dst[CtxWireLen-1]
	putUint64(dst[0:], c.TraceID)
	putUint64(dst[8:], c.Parent)
	dst[16] = c.Flags
}

// CtxFromWire decodes a Context from src (at least CtxWireLen bytes).
func CtxFromWire(src []byte) Context {
	_ = src[CtxWireLen-1]
	return Context{
		TraceID: getUint64(src[0:]),
		Parent:  getUint64(src[8:]),
		Flags:   src[16],
	}
}

func putUint64(b []byte, v uint64) {
	b[0] = byte(v >> 56)
	b[1] = byte(v >> 48)
	b[2] = byte(v >> 40)
	b[3] = byte(v >> 32)
	b[4] = byte(v >> 24)
	b[5] = byte(v >> 16)
	b[6] = byte(v >> 8)
	b[7] = byte(v)
}

func getUint64(b []byte) uint64 {
	return uint64(b[0])<<56 | uint64(b[1])<<48 | uint64(b[2])<<40 | uint64(b[3])<<32 |
		uint64(b[4])<<24 | uint64(b[5])<<16 | uint64(b[6])<<8 | uint64(b[7])
}

// Stage identifies the pipeline hop a span was recorded at. Each stage
// owns one ring in a Recorder.
type Stage uint8

// The traced hops, in pipeline order.
const (
	StageBatcher          Stage = iota // CEBP batch flushed to the switch CPU
	StageFPElim                        // false-positive elimination pass
	StageExportEnqueue                 // batch accepted by the exporter queue
	StageExportRetransmit              // frame rewritten after a connection drop
	StageExportFailover                // endpoint failover or primary promotion
	StageReroute                       // whole-batch re-route after a ring change
	StageIngest                        // shard read→applied (frame to store/WAL)
	StageWALFsync                      // WAL append→fsync (group-commit wait)
	StageStoreIndex                    // store indexing of the batch's events
	StageHandoff                       // rebalance handoff (mark/import)
	NumStages
)

var stageNames = [NumStages]string{
	"batcher-flush",
	"fpelim",
	"export-enqueue",
	"export-retransmit",
	"export-failover",
	"fabric-reroute",
	"shard-ingest",
	"wal-fsync",
	"store-index",
	"rebalance-handoff",
}

// String returns the stable stage name used in /traces JSON and the
// query protocol's trace verb.
func (s Stage) String() string {
	if s < NumStages {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded hop of a traced batch. It is a fixed-size value
// (it encodes to exactly spanWords ring words), so recording is
// allocation-free.
type Span struct {
	TraceID  uint64
	SpanID   uint64
	Parent   uint64
	Start    int64 // wall clock, UnixNano
	End      int64 // wall clock, UnixNano
	Seq      uint64
	Stage    Stage
	SwitchID uint16
	Shard    uint32 // shard ID for collector-side hops, 0 elsewhere
	Events   uint32 // events carried by the batch at this hop
	Detail   uint32 // stage-specific: retransmit writes, endpoint, slot, µs…
}

// Now returns the wall-clock span timestamp. Spans cross process
// boundaries, so they use UnixNano rather than any per-process
// monotonic base; on one machine (and fleets with sane NTP) hop order
// is preserved.
func Now() int64 { return time.Now().UnixNano() }
