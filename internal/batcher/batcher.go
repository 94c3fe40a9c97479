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
//
// Dormancy. Hardware CEBPs circulate continuously; the simulator spends an
// event on a pass only when the pass can change state. A pass that pops
// nothing and leaves the stack empty schedules nothing: the CEBP goes
// dormant, and stays so until the next push.
//
//   - Carrying a payload, it keeps passing virtually. The time of a pass
//     depends only on the payload length, so the passes lie on a fixed
//     lattice, nextAt + i·period. A push settles the ones already due
//     (passes and port bytes, arithmetically) and re-arms every such CEBP
//     at its first lattice instant at or after now. With IdleFlush set the
//     CEBP holds one event, at the first lattice instant at or after
//     idleSince + IdleFlush; a push cancels it. Flush and Stop settle too;
//     a Stats scrape counts the virtual passes and moves nothing.
//   - Carrying nothing, it is unobservable and has no lattice: it restarts
//     one RecircLatency after the push that needs it, one CEBP per pushed
//     event.
//
// Tie rule. A virtual pass due at the very instant of a push (or of a
// Flush, Stop or scrape) has not happened yet: it runs after the pushing
// event and sees the push. Passes re-armed for one instant run in CEBP
// order. A CEBP that spent an event on every pass would have these ties
// broken by scheduler sequence, which a pass armed late cannot reproduce;
// so where a push and a pass, or two passes, share a nanosecond, an event
// may ride in a different CEBP and a pass more or less be counted. What is
// pushed and delivered is the same (unless the tie also decides whether a
// push still fits a full stack); which batch delivers it need not be.
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
	// StackDepth is the capacity of the cross-stage event stack (default
	// DefaultStackDepth).
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

// DefaultStackDepth is the depth of the cross-stage event stack NetSeer
// deploys.
const DefaultStackDepth = 512

func (c Config) withDefaults() Config {
	if c.BatchSize <= 0 {
		c.BatchSize = fevent.DefaultBatchSize
	}
	if c.StackDepth <= 0 {
		c.StackDepth = DefaultStackDepth
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
	// dormantN counts dormant CEBPs so the Push fast path skips the rouse
	// scan entirely while every CEBP is circulating (the steady state
	// under load, where Push runs once per extracted event).
	dormantN int
	// passTab and wireTab cache the time of one pass (the recirculation
	// latency or the CEBP's serialization time, whichever is longer) and
	// the CEBP's on-wire size by payload length (0..BatchSize). A pass
	// runs per event per circulating packet, and the float division in
	// the serialization formula was a measurable slice of a push+pass
	// cycle; payload length is the only variable, so both are table
	// lookups.
	passTab []sim.Time
	wireTab []int
	// scratch is the reusable out-parameter for flush deliveries (valid
	// only for the call, per the BatchFunc contract).
	scratch fevent.Batch

	// Stats. Plain counters: the batcher is single-owner (one simulated
	// pipeline) and Push/pass are pinned zero-alloc hot paths; scrapes read
	// the owner-published core.Stats sum instead (see internal/obs).
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
	// dormant: the last pass popped nothing and left the stack empty, so
	// no pass is scheduled (see the package comment). With a payload, the
	// passes not simulated are due at nextAt, nextAt+period, ...; idle is
	// the armed idle-flush deadline, if IdleFlush is set.
	dormant        bool
	nextAt, period sim.Time
	idle           sim.Handle
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
		passTab: make([]sim.Time, cfg.BatchSize+1),
		wireTab: make([]int, cfg.BatchSize+1),
	}
	for n := 0; n <= cfg.BatchSize; n++ {
		b.wireTab[n] = 14 + fevent.BatchHeaderLen + fevent.RecordLen*n
		ser := sim.Time(float64(b.wireTab[n]*8) / cfg.InternalPortBps * 1e9)
		b.passTab[n] = max(cfg.RecircLatency, ser)
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
	if b.dormantN > 0 {
		b.rouse(1)
	}
	return true
}

// rouse re-arms dormant CEBPs after a push of n events: every one that
// carries a payload, at its next lattice instant with the passes before it
// settled, and the first n empty ones, one RecircLatency from now.
func (b *Batcher) rouse(n int) {
	now := b.sim.Now()
	for _, c := range b.cebps {
		switch {
		case !c.dormant:
		case len(c.payload) > 0:
			b.settle(c, now)
			b.arm(c, c.nextAt)
		case n > 0:
			n--
			b.arm(c, now+b.cfg.RecircLatency)
		}
	}
}

// missed returns how many virtual passes of dormant c are due strictly
// before now, and the bytes they put through the internal port.
func (b *Batcher) missed(c *cebp, now sim.Time) (passes, portBytes uint64) {
	if len(c.payload) == 0 || now <= c.nextAt {
		return 0, 0
	}
	k := uint64((now - c.nextAt + c.period - 1) / c.period)
	return k, k * uint64(b.wireTab[len(c.payload)])
}

// settle counts the virtual passes of dormant c due before now and moves
// its lattice origin past them.
func (b *Batcher) settle(c *cebp, now sim.Time) {
	k, bytes := b.missed(c, now)
	b.passes += k
	b.portBytes += bytes
	c.nextAt += sim.Time(k) * c.period
}

// arm ends c's dormancy with a real pass at instant at.
func (b *Batcher) arm(c *cebp, at sim.Time) {
	c.dormant = false
	b.dormantN--
	b.sim.Cancel(c.idle)
	b.sim.At(at, c.passFn)
}

// PushBurst offers a slice of extracted flow events to the stack in one
// bulk operation: a single capacity check, one append, one high-water
// update, and one scan of the dormant CEBPs — the burst-mode counterpart
// of calling Push per event (same stack order, same overflow accounting,
// same CEBPs roused). It returns how many events were accepted; the rest
// were lost to stack overflow.
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
	if b.dormantN > 0 {
		b.rouse(n)
	}
	return n
}

// Backlog returns the number of events waiting in the stack.
func (b *Batcher) Backlog() int { return len(b.stack) }

// pass is one CEBP transit of the pipeline: pop an event if available,
// flush if full or idle, then recirculate — or go dormant if the pass did
// nothing and the next cannot either.
func (b *Batcher) pass(c *cebp) {
	if b.stopped {
		return
	}
	now := b.sim.Now()
	if c.dormant {
		// The idle-flush deadline of a dormant CEBP: the passes before
		// this one found the stack empty too.
		b.settle(c, now)
		c.dormant = false
		b.dormantN--
	}
	b.passes++
	popped := false
	if n := len(b.stack); n > 0 {
		// The stack pops LIFO: the hardware stack's top lives in the last
		// stage written.
		e := b.stack[n-1]
		b.stack = b.stack[:n-1]
		c.payload = append(c.payload, e)
		c.idleSince = now
		popped = true
		b.pops++
	}
	next := b.passTab[len(c.payload)]
	b.portBytes += uint64(b.wireTab[len(c.payload)])
	switch {
	case len(c.payload) >= b.cfg.BatchSize:
		b.flush(c)
		next += b.cfg.FlushLatency
	case !popped && len(c.payload) > 0 && b.cfg.IdleFlush > 0 &&
		now-c.idleSince >= b.cfg.IdleFlush:
		b.flush(c)
		next += b.cfg.FlushLatency
	}
	if popped || len(b.stack) > 0 {
		b.sim.Schedule(next, c.passFn)
		return
	}
	// Nothing done and nothing to do: until the next push every later
	// pass is this one again, period apart.
	c.dormant = true
	b.dormantN++
	c.nextAt, c.period = now+next, next
	if len(c.payload) > 0 && b.cfg.IdleFlush > 0 {
		at := c.nextAt
		if due := c.idleSince + b.cfg.IdleFlush; due > at {
			at += (due - at + next - 1) / next * next
		}
		c.idle = b.sim.At(at, c.passFn)
	}
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
// the idle-flush path. A dormant CEBP whose payload it takes is re-armed at
// its next lattice instant: its passes are no longer the ones it skipped.
func (b *Batcher) Flush() {
	total := len(b.stack)
	for _, c := range b.cebps {
		total += len(c.payload)
	}
	if total == 0 {
		return
	}
	now := b.sim.Now()
	events := make([]fevent.Event, 0, total)
	for _, c := range b.cebps {
		if c.dormant && len(c.payload) > 0 {
			b.settle(c, now)
			b.arm(c, c.nextAt)
		}
		events = append(events, c.payload...)
		c.payload = c.payload[:0]
	}
	events = append(events, b.stack...)
	b.stack = b.stack[:0]
	for len(events) > 0 {
		n := min(len(events), b.cfg.BatchSize)
		b.scratch.SwitchID = b.cfg.SwitchID
		b.scratch.Timestamp = now
		b.scratch.Events = events[:n]
		events = events[n:]
		b.emit()
	}
}

// Stop halts all CEBP circulation (the next pass of each CEBP becomes a
// no-op, and the virtual passes of the dormant ones end here), letting a
// simulation drain its event queue. Call Flush first to recover partial
// payloads.
func (b *Batcher) Stop() {
	now := b.sim.Now()
	for _, c := range b.cebps {
		if c.dormant {
			b.settle(c, now)
			b.sim.Cancel(c.idle)
			c.dormant = false
		}
	}
	b.dormantN = 0
	b.stopped = true
}

// virtual returns the passes dormant CEBPs have made since they were last
// settled and the bytes those passes put through the internal port. It
// moves nothing: a scrape is not an event.
func (b *Batcher) virtual() (passes, portBytes uint64) {
	if b.dormantN == 0 {
		return 0, 0
	}
	now := b.sim.Now()
	for _, c := range b.cebps {
		if c.dormant {
			k, bytes := b.missed(c, now)
			passes += k
			portBytes += bytes
		}
	}
	return passes, portBytes
}

// Stats reports pushed events, stack-overflow losses, flushed batches,
// delivered events, and total bytes serialized through the internal port.
func (b *Batcher) Stats() (pushed, overflow, batches, delivered, portBytes uint64) {
	_, v := b.virtual()
	return b.pushed, b.overflow, b.flushed, b.delivered, b.portBytes + v
}

// PassStats reports CEBP circulation work: stack transits and events
// popped. pops/passes is the stack-pressure signal of Fig. 12 — near 1.0
// the circulating packets are saturated.
func (b *Batcher) PassStats() (passes, pops uint64) {
	v, _ := b.virtual()
	return b.passes + v, b.pops
}

// StackHighWater returns the deepest the cross-stage stack has been; a
// high-water near StackDepth warns of imminent overflow loss.
func (b *Batcher) StackHighWater() int { return b.stackHW }
