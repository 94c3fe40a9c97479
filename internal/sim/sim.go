// Package sim provides a deterministic discrete-event simulation engine.
//
// All of the network substrate in this repository (switches, links, hosts,
// NICs) runs on top of a single Simulator: components schedule closures at
// virtual-time instants and the engine executes them in (time, sequence)
// order, so a run with a fixed seed is exactly reproducible.
//
// Time is modeled as integer nanoseconds (Time). The engine never consults
// the wall clock.
package sim

import (
	"fmt"
	"math"
	"math/bits"
	"strconv"
)

// Time is a virtual-time instant in nanoseconds since the start of the
// simulation.
type Time int64

// Common durations, expressed in simulation Time units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// MaxTime is the largest representable instant; Run(MaxTime) drains the
// event queue completely.
const MaxTime Time = math.MaxInt64

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// appendFixed appends t ÷ (step × 10^decimals) with that many decimals,
// rounding half up, in integer arithmetic: the query server
// renders one instant per result row, and a float's 'f' format costs more
// than the rest of the row.
func appendFixed(b []byte, t, step Time, decimals int) []byte {
	q := t / step
	if t%step >= (step+1)/2 {
		q++
	}
	var frac [6]byte
	for i := decimals - 1; i >= 0; i-- {
		frac[i] = byte('0' + q%10)
		q /= 10
	}
	b = strconv.AppendInt(b, int64(q), 10)
	b = append(b, '.')
	return append(b, frac[:decimals]...)
}

// AppendTo appends the instant with automatic unit selection, allocating
// nothing.
func (t Time) AppendTo(b []byte) []byte {
	switch {
	case t >= Second:
		return append(appendFixed(b, t, Microsecond, 6), 's')
	case t >= Millisecond:
		return append(appendFixed(b, t, Microsecond, 3), "ms"...)
	case t >= Microsecond:
		return append(appendFixed(b, t, Nanosecond, 3), "us"...)
	default:
		return append(strconv.AppendInt(b, int64(t), 10), "ns"...)
	}
}

// String renders the instant with automatic unit selection.
func (t Time) String() string {
	var buf [32]byte
	return string(t.AppendTo(buf[:0]))
}

// event is a scheduled closure. Executed and canceled events return to a
// free list and are reused by later Schedule/At calls, so steady-state
// scheduling does not allocate; gen distinguishes a recycled event from
// the one a stale Handle still points at. The struct is 48 bytes, exactly
// an allocation class; one more word would put every pending event in
// the 64-byte class.
type event struct {
	at    Time
	seq   uint64 // tie-breaker: FIFO among events at the same instant
	fn    func()
	next  *event // wheel slot FIFO link, or free-list link
	tail  *event // on the head of a wheel slot's FIFO only: its last event
	index int32  // heap index; inWheel while wheel-resident; notPending otherwise
	gen   uint32 // incremented on every release to the free list
}

const (
	notPending = -1
	inWheel    = -2
)

// less orders events by (at, seq); seq breaks ties FIFO.
func less(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// The pending set has two tiers. Events due less than wheelSpan ahead of
// the clock go to the wheel, everything else to the heap; an event stays
// in the tier it was scheduled into, and the next event to run is the
// (at, seq)-smaller of the two tier heads, so the execution order is that
// of one queue ordered by (at, seq).
//
// The span covers the constant delays that make up 99.9 % of all
// scheduling on the paper's testbed (serialization 80/320 ns, a switch
// hop's propagation plus pipeline 1.6 µs, a NIC-bound frame's propagation
// 1 µs, pacing chunks 1.6 µs apart — see DESIGN.md §7); the heap is left
// with the sparse far-future events (flow arrivals, RTOs, PFC timers)
// which near-term events then never have to sift past. 2048 slots keep one
// summary word over the bitmap (32 words of 64 slots).
const (
	wheelBits = 11
	wheelSpan = 1 << wheelBits // slots, 1 ns each
	wheelMask = wheelSpan - 1
)

// wheel is the near-future tier: wheelSpan slots of 1 ns indexed by
// at mod wheelSpan, with a two-level occupancy bitmap. Every resident
// event has now <= at < now+wheelSpan, so one slot only ever holds events
// of a single instant and its FIFO order is their seq order. The earliest
// resident event is kept in first: when it leaves, its successor is the
// next event of its slot or, failing that, the head of the next occupied
// slot in circular order, found with two trailing-zero counts — at pop
// time, so that the search overlaps the callback instead of delaying the
// next Step.
type wheel struct {
	// The few hot words come first, next to the Simulator's own: behind
	// the 8 KB of slots they measurably slow a Schedule+Step down.
	first   *event                 // earliest resident event; nil iff empty
	summary uint64                 // bit w: words[w] != 0
	words   [wheelSpan / 64]uint64 // bit i%64 of words[i/64]: slots[i] != nil
	// slots[i] is the head of slot i's singly-linked FIFO (its tail field
	// points at the last event), nil when the slot is empty.
	slots [wheelSpan]*event
}

func (w *wheel) push(ev *event) {
	i := uint(ev.at) & wheelMask
	if head := w.slots[i]; head != nil {
		head.tail.next = ev
		head.tail = ev
	} else {
		w.slots[i] = ev
		ev.tail = ev
		w.words[i>>6] |= 1 << (i & 63)
		w.summary |= 1 << (i >> 6)
		if w.first == nil || ev.at < w.first.at {
			w.first = ev
		}
	}
	ev.index = inWheel
}

// popHead unlinks ev, the head of its slot, and moves first on if ev was it.
func (w *wheel) popHead(ev *event) {
	i := uint(ev.at) & wheelMask
	if w.slots[i] = ev.next; ev.next != nil {
		ev.next.tail = ev.tail
		if w.first == ev {
			w.first = ev.next
		}
		return
	}
	if w.words[i>>6] &^= 1 << (i & 63); w.words[i>>6] == 0 {
		w.summary &^= 1 << (i >> 6)
	}
	if w.first == ev {
		w.first = w.after(i)
	}
}

// after returns the head of the first occupied slot circularly after
// slot cur, which must be empty, or nil if the wheel is empty. Every
// resident event is due less than a lap after the one that just left
// cur, so circular slot order from cur is time order.
func (w *wheel) after(cur uint) *event {
	if w.summary == 0 {
		return nil
	}
	wi := cur >> 6
	b := w.words[wi] >> (cur & 63) << (cur & 63) // wi's slots after cur
	if b == 0 {
		// The next occupied word after wi, wrapping around; wi itself
		// comes last, for its slots below cur.
		later := w.summary >> (wi + 1) << (wi + 1)
		if later == 0 {
			later = w.summary
		}
		wi = uint(bits.TrailingZeros64(later))
		b = w.words[wi]
	}
	return w.slots[wi<<6+uint(bits.TrailingZeros64(b))]
}

// remove unlinks ev from anywhere in its slot (Cancel): a walk over the
// events scheduled for the same instant.
func (w *wheel) remove(ev *event) {
	head := w.slots[uint(ev.at)&wheelMask]
	if head == ev {
		w.popHead(ev)
		return
	}
	prev := head
	for prev.next != ev {
		prev = prev.next
	}
	if prev.next = ev.next; head.tail == ev {
		head.tail = prev
	}
}

// eventHeap is the far-future tier: a min-heap ordered by (at, seq). The
// sift operations are hand-rolled rather than going through
// container/heap: the interface methods cost a dynamic dispatch per
// comparison and a Swap call per level. Inlining the compare and moving
// elements hole-style (shift, then place once) runs the same algorithm in
// roughly half the time.
type eventHeap []*event

// push appends ev and restores the heap by sifting it up.
func (q *eventHeap) push(ev *event) {
	*q = append(*q, nil)
	q.siftUp(ev, len(*q)-1)
}

// remove deletes the event at heap index i (0 on the Step path).
func (q *eventHeap) remove(i int) {
	h := *q
	n := len(h) - 1
	last := h[n]
	h[n] = nil
	h = h[:n]
	*q = h
	if i == n {
		return
	}
	// last replaces the hole at i; restore heap order in whichever
	// direction it violates it.
	if i > 0 && less(last, h[(i-1)/2]) {
		q.siftUp(last, i)
		return
	}
	q.siftDown(last, i)
}

// siftUp places ev, currently homeless, at or above hole index i. The
// moved elements shift down one slot each; ev is written exactly once.
func (q *eventHeap) siftUp(ev *event, i int) {
	h := *q
	for i > 0 {
		parent := (i - 1) / 2
		p := h[parent]
		if !less(ev, p) {
			break
		}
		h[i] = p
		p.index = int32(i)
		i = parent
	}
	h[i] = ev
	ev.index = int32(i)
}

// siftDown places ev, currently homeless, at or below hole index i.
func (q *eventHeap) siftDown(ev *event, i int) {
	h := *q
	n := len(h)
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && less(h[r], h[child]) {
			child = r
		}
		c := h[child]
		if !less(c, ev) {
			break
		}
		h[i] = c
		c.index = int32(i)
		i = child
	}
	h[i] = ev
	ev.index = int32(i)
}

// Simulator is a single-threaded discrete-event scheduler. It is not safe
// for concurrent use: all scheduled closures run on the goroutine that calls
// Run or Step.
type Simulator struct {
	now     Time
	seq     uint64
	pending int       // events scheduled in either tier
	heap    eventHeap // events due wheelSpan or more after the clock when scheduled
	free    *event    // recycled events (zero-alloc steady-state scheduling)
	// processed counts executed events, mostly for tests and reporting.
	processed uint64
	wheel     wheel // events due less than wheelSpan after the clock when scheduled
}

// New returns an empty simulator positioned at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current virtual time.
func (s *Simulator) Now() Time { return s.now }

// Processed returns the number of events executed so far.
func (s *Simulator) Processed() uint64 { return s.processed }

// Pending returns the number of events still scheduled.
func (s *Simulator) Pending() int { return s.pending }

// head returns the earliest pending event without removing it, or nil.
func (s *Simulator) head() *event {
	ev := s.wheel.first
	if len(s.heap) > 0 {
		if h := s.heap[0]; ev == nil || less(h, ev) {
			return h
		}
	}
	return ev
}

// NextAt returns the instant of the earliest pending event, or MaxTime if
// none is pending, without popping anything. The scheduler model compares
// it with its reference after every operation (sched_model_test.go).
func (s *Simulator) NextAt() Time {
	if ev := s.head(); ev != nil {
		return ev.at
	}
	return MaxTime
}

// Handle identifies a scheduled event so it can be canceled. The zero Handle
// is invalid.
type Handle struct {
	ev  *event
	gen uint32
}

// Schedule runs fn after delay d (which must be >= 0) relative to Now.
func (s *Simulator) Schedule(d Time, fn func()) Handle {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now+d, fn)
}

// At runs fn at the absolute instant t, which must not be in the past.
func (s *Simulator) At(t Time, fn func()) Handle {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling in the past: %v < %v", t, s.now))
	}
	ev := s.free
	if ev != nil {
		s.free, ev.next = ev.next, nil
	} else {
		ev = &event{}
	}
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.seq++
	s.pending++
	if t-s.now < wheelSpan {
		s.wheel.push(ev)
	} else {
		s.heap.push(ev)
	}
	return Handle{ev: ev, gen: ev.gen}
}

// recycle returns an event that left the pending set to the free list,
// dropping its closure reference and invalidating outstanding Handles.
func (s *Simulator) recycle(ev *event) {
	s.pending--
	ev.fn = nil
	ev.index = notPending
	ev.gen++
	ev.next = s.free
	s.free = ev
}

// Cancel removes a scheduled event. It reports whether the event was still
// pending (false if it already ran, was canceled, or the handle is zero).
func (s *Simulator) Cancel(h Handle) bool {
	ev := h.ev
	if ev == nil || ev.gen != h.gen || ev.index == notPending {
		return false
	}
	if ev.index == inWheel {
		s.wheel.remove(ev)
	} else {
		s.heap.remove(int(ev.index))
	}
	s.recycle(ev)
	return true
}

// Step executes the single earliest pending event and reports whether one
// was executed.
func (s *Simulator) Step() bool {
	ev := s.head()
	if ev == nil {
		return false
	}
	s.exec(ev)
	return true
}

// exec runs ev, which must be head().
func (s *Simulator) exec(ev *event) {
	if ev.index == inWheel {
		s.wheel.popHead(ev)
	} else {
		s.heap.remove(0)
	}
	s.now = ev.at
	s.processed++
	fn := ev.fn
	// Recycle before running so fn's own Schedule calls can reuse the event.
	s.recycle(ev)
	fn()
}

// Run executes events in order until the queue is empty or the next event
// lies beyond the until instant. It returns the virtual time at which
// execution stopped. Events exactly at until are executed.
func (s *Simulator) Run(until Time) Time {
	for {
		ev := s.head()
		if ev == nil || ev.at > until {
			break
		}
		s.exec(ev)
	}
	// Advance the clock to the horizon (never backward).
	if s.now < until && until != MaxTime {
		s.now = until
	}
	return s.now
}

// RunBefore executes events strictly earlier than horizon, leaving the
// clock at the last executed event (it never advances the clock to the
// horizon — the caller owns the window semantics). It is one of the
// scheduler model's operations (sched_model_test.go, FuzzScheduler).
func (s *Simulator) RunBefore(horizon Time) {
	for {
		ev := s.head()
		if ev == nil || ev.at >= horizon {
			break
		}
		s.exec(ev)
	}
}

// RunAll drains every pending event regardless of time. Unlike Run with a
// finite horizon, it leaves the clock at the instant of the last executed
// event.
func (s *Simulator) RunAll() Time {
	for s.Step() {
	}
	return s.now
}
