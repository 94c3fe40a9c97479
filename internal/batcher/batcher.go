// Package batcher implements NetSeer's circulating event batching (§3.5).
//
// The data plane cannot hold a 1,200-byte batch in one stage (stage memory
// is narrow), so NetSeer spreads a stack of pending 24-byte events across
// stages and keeps a handful of circulating event batching packets (CEBPs)
// recirculating through an internal port. Each time a CEBP passes the
// stack it pops one event into its payload; when the payload reaches the
// batch size (or the CEBP finds the stack empty after a deadline), the CEBP
// is forwarded to the switch CPU and a fresh empty clone continues
// circulating.
//
// The model reproduces the two throughput limits of Fig. 12: the pop rate
// (one event per recirculation pass, passes bounded by pipeline latency and
// the number of CEBPs in flight) and the internal port's serialization
// bandwidth.
package batcher

import (
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/sim"
)

// Config parameterizes a Batcher. Zero fields take defaults.
type Config struct {
	// BatchSize is the number of events per flushed batch (paper: 50).
	BatchSize int
	// StackDepth is the capacity of the cross-stage event stack.
	StackDepth int
	// CEBPs is the number of circulating packets kept in flight.
	CEBPs int
	// RecircLatency is the time for one pass through the pipeline via the
	// internal port.
	RecircLatency sim.Time
	// FlushLatency is the extra time to hand a full CEBP to the CPU path
	// and clone a fresh one.
	FlushLatency sim.Time
	// InternalPortBps is the internal port bandwidth in bits per second;
	// a pass cannot finish faster than the CEBP's serialization time.
	InternalPortBps float64
	// IdleFlush forwards a partially filled CEBP whose payload has waited
	// this long with an empty stack (0 disables idle flushing; Flush must
	// then be called to drain the final partial batch).
	IdleFlush sim.Time
	// SwitchID stamps outgoing batches.
	SwitchID uint16
}

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = fevent.DefaultBatchSize
	}
	if c.StackDepth <= 0 {
		c.StackDepth = 512
	}
	if c.CEBPs <= 0 {
		c.CEBPs = 9
	}
	if c.RecircLatency <= 0 {
		c.RecircLatency = 100 * sim.Nanosecond
	}
	if c.FlushLatency <= 0 {
		c.FlushLatency = 100 * sim.Nanosecond
	}
	if c.InternalPortBps <= 0 {
		c.InternalPortBps = 100e9
	}
	return c
}

// BatchFunc receives flushed batches. The batch and its Events slice are
// only valid for the duration of the call: the batcher reuses both for
// the next flush (so the steady-state flush path never allocates), and
// implementations must copy anything they retain.
type BatchFunc func(b *fevent.Batch)

// Batcher is the circulating-event-batching engine for one switch.
type Batcher struct {
	cfg     Config
	sim     *sim.Simulator
	out     BatchFunc
	stack   []fevent.Event
	cebps   []*cebp
	stopped bool
	// parkedN counts parked CEBPs so the Push fast path skips the wake
	// scan entirely while every CEBP is circulating (the steady state
	// under load, where Push runs once per extracted event).
	parkedN int
	// serTab and wireTab cache the serialization time and on-wire size of
	// a CEBP by payload length (0..BatchSize). A pass runs per event per
	// circulating packet, and the float division in the serialization
	// formula was a measurable slice of a push+pass cycle; payload
	// length is the only variable, so both are table lookups.
	serTab  []sim.Time
	wireTab []int
	// scratch is the reusable out-parameter for flush deliveries (valid
	// only for the call, per the BatchFunc contract).
	scratch fevent.Batch

	// Stats. Plain counters: the batcher is single-owner (one simulated
	// pipeline) and Push/pass are pinned zero-alloc hot paths; scrapes read
	// owner-published mirrors instead (see internal/obs).
	pushed    uint64
	overflow  uint64
	flushed   uint64 // batches delivered
	delivered uint64 // events delivered
	portBytes uint64 // bytes serialized through the internal port
	passes    uint64 // CEBP transits of the stack
	pops      uint64 // events popped into CEBPs
	stackHW   int    // deepest the stack has been
}

// cebp is one circulating packet's state.
type cebp struct {
	payload   []fevent.Event
	idleSince sim.Time
	// passFn is the pre-bound pass closure for this CEBP, created once at
	// construction so per-pass rescheduling never allocates.
	passFn func()
	// parked: the CEBP is empty with an empty stack; it stops
	// recirculating until Push wakes it. Pure simulation optimization —
	// hardware CEBPs circulate continuously, but an empty pass over an
	// empty stack is unobservable, so parking preserves behaviour while
	// removing idle simulator events.
	parked bool
}

// New creates a batcher and starts its CEBPs circulating on s. Events are
// delivered to out as they flush.
func New(s *sim.Simulator, cfg Config, out BatchFunc) *Batcher {
	if out == nil {
		panic("batcher: out must not be nil")
	}
	cfg = cfg.withDefaults()
	b := &Batcher{cfg: cfg, sim: s, out: out,
		// The stack is pre-sized to its depth bound so Push never grows it.
		stack:   make([]fevent.Event, 0, cfg.StackDepth),
		serTab:  make([]sim.Time, cfg.BatchSize+1),
		wireTab: make([]int, cfg.BatchSize+1),
	}
	for n := 0; n <= cfg.BatchSize; n++ {
		b.wireTab[n] = 14 + fevent.BatchHeaderLen + fevent.RecordLen*n
		b.serTab[n] = sim.Time(float64(b.wireTab[n]*8) / cfg.InternalPortBps * 1e9)
	}
	for i := 0; i < cfg.CEBPs; i++ {
		c := &cebp{payload: make([]fevent.Event, 0, cfg.BatchSize)}
		c.passFn = func() { b.pass(c) }
		b.cebps = append(b.cebps, c)
		// Stagger launches so CEBPs do not pass the stack in lockstep.
		delay := cfg.RecircLatency * sim.Time(i) / sim.Time(cfg.CEBPs)
		s.Schedule(delay, c.passFn)
	}
	return b
}

// Push offers one extracted flow event to the stack. It reports false if
// the stack is full and the event was lost (counted in Stats; within the
// paper's measured event rates this does not happen).
func (b *Batcher) Push(e *fevent.Event) bool {
	if len(b.stack) >= b.cfg.StackDepth {
		b.overflow++
		return false
	}
	b.pushed++
	b.stack = append(b.stack, *e)
	if len(b.stack) > b.stackHW {
		b.stackHW = len(b.stack)
	}
	b.wakeOne()
	return true
}

// wakeOne restarts a parked CEBP, if any.
func (b *Batcher) wakeOne() {
	if b.parkedN == 0 {
		return
	}
	for _, c := range b.cebps {
		if c.parked {
			c.parked = false
			b.parkedN--
			b.sim.Schedule(b.cfg.RecircLatency, c.passFn)
			return
		}
	}
}

// PushBurst offers a slice of extracted flow events to the stack in one
// bulk operation: a single capacity check, one append, one high-water
// update, and at most one wake per accepted event — the burst-mode
// counterpart of calling Push per event (same stack order, same overflow
// accounting). It returns how many events were accepted; the rest were
// lost to stack overflow.
func (b *Batcher) PushBurst(evs []fevent.Event) int {
	n := len(evs)
	if free := b.cfg.StackDepth - len(b.stack); n > free {
		b.overflow += uint64(n - free)
		n = free
	}
	if n == 0 {
		return 0
	}
	b.pushed += uint64(n)
	b.stack = append(b.stack, evs[:n]...)
	if len(b.stack) > b.stackHW {
		b.stackHW = len(b.stack)
	}
	for i := 0; i < n && b.parkedN > 0; i++ {
		b.wakeOne()
	}
	return n
}

// Backlog returns the number of events waiting in the stack.
func (b *Batcher) Backlog() int { return len(b.stack) }

// pass is one CEBP transit of the pipeline: pop an event if available,
// flush if full or idle, then recirculate.
func (b *Batcher) pass(c *cebp) {
	if b.stopped {
		return
	}
	b.passes++
	popped := false
	if n := len(b.stack); n > 0 {
		// The stack pops LIFO: the hardware stack's top lives in the last
		// stage written.
		e := b.stack[n-1]
		b.stack = b.stack[:n-1]
		c.payload = append(c.payload, e)
		c.idleSince = b.sim.Now()
		popped = true
		b.pops++
	}
	next := b.cfg.RecircLatency
	if ser := b.serTab[len(c.payload)]; ser > next {
		next = ser
	}
	b.portBytes += uint64(b.wireTab[len(c.payload)])
	switch {
	case len(c.payload) >= b.cfg.BatchSize:
		b.flush(c)
		next += b.cfg.FlushLatency
	case !popped && len(c.payload) > 0 && b.cfg.IdleFlush > 0 &&
		b.sim.Now()-c.idleSince >= b.cfg.IdleFlush:
		b.flush(c)
		next += b.cfg.FlushLatency
	}
	if !popped && len(c.payload) == 0 && len(b.stack) == 0 {
		// Nothing to do and nothing carried: park until work arrives.
		c.parked = true
		b.parkedN++
		return
	}
	b.sim.Schedule(next, c.passFn)
}

func (b *Batcher) flush(c *cebp) {
	b.scratch.SwitchID = b.cfg.SwitchID
	b.scratch.Timestamp = b.sim.Now()
	b.scratch.Events = c.payload
	b.emit()
	// Clone: empty payload, same circulating identity and backing array.
	c.payload = c.payload[:0]
}

// emit stamps the scratch batch's trace context — derived from the flush
// ordinal, so it is deterministic across replays — and hands the batch
// to out, recording the batcher-flush span when the trace is sampled.
// Recording is a handful of atomic stores into a fixed ring, so the
// flush path stays allocation-free either way.
func (b *Batcher) emit() {
	b.scratch.Trace = trace.NewContext(b.cfg.SwitchID, b.flushed)
	b.flushed++
	b.delivered += uint64(len(b.scratch.Events))
	if !b.scratch.Trace.Sampled() {
		b.out(&b.scratch)
		b.scratch.Events = nil
		return
	}
	sp := trace.Begin(b.scratch.Trace, trace.StageBatcher)
	sp.SwitchID = b.cfg.SwitchID
	sp.Events = uint32(len(b.scratch.Events))
	// Downstream hops (fpelim, export) parent onto the flush span.
	b.scratch.Trace.Parent = sp.SpanID
	b.out(&b.scratch)
	b.scratch.Events = nil
	trace.Finish(&sp)
}

// Flush synchronously drains the stack and all partial CEBP payloads into
// one final batch. Used at the end of simulations; the hardware analogue is
// the idle-flush path.
func (b *Batcher) Flush() {
	events := make([]fevent.Event, 0, len(b.stack)+b.cfg.BatchSize)
	for _, c := range b.cebps {
		events = append(events, c.payload...)
		c.payload = c.payload[:0]
	}
	events = append(events, b.stack...)
	b.stack = b.stack[:0]
	if len(events) == 0 {
		return
	}
	for len(events) > 0 {
		n := len(events)
		if n > b.cfg.BatchSize {
			n = b.cfg.BatchSize
		}
		b.scratch.SwitchID = b.cfg.SwitchID
		b.scratch.Timestamp = b.sim.Now()
		b.scratch.Events = events[:n]
		events = events[n:]
		b.emit()
	}
}

// Stop halts all CEBP circulation (the next pass of each CEBP becomes a
// no-op), letting a simulation drain its event queue. Call Flush first to
// recover partial payloads.
func (b *Batcher) Stop() { b.stopped = true }

// Stats reports pushed events, stack-overflow losses, flushed batches,
// delivered events, and total bytes serialized through the internal port.
func (b *Batcher) Stats() (pushed, overflow, batches, delivered, portBytes uint64) {
	return b.pushed, b.overflow, b.flushed, b.delivered, b.portBytes
}

// PassStats reports CEBP circulation work: stack transits and events
// popped. pops/passes is the stack-pressure signal of Fig. 12 — near 1.0
// the circulating packets are saturated.
func (b *Batcher) PassStats() (passes, pops uint64) { return b.passes, b.pops }

// StackHighWater returns the deepest the cross-stage stack has been; a
// high-water near StackDepth warns of imminent overflow loss.
func (b *Batcher) StackHighWater() int { return b.stackHW }
