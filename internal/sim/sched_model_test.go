package sim

import (
	"fmt"
	"sort"
	"testing"
	"unsafe"
)

// The differential test drives the two-tier queue and a reference model
// with the same program and requires the same observable behaviour:
// execution order and instants, every call's result, and Now, Pending and
// NextAt after every call.

// sched is what a program can do to a scheduler. Handles are indices in
// scheduling order so the two implementations can be addressed alike.
type sched interface {
	Now() Time
	Pending() int
	NextAt() Time
	at(t Time, fn func()) int
	cancel(h int) bool
	Step() bool
	Run(until Time) Time
	RunBefore(horizon Time)
	RunAll() Time
}

type realSched struct {
	*Simulator
	handles []Handle
}

func (r *realSched) at(t Time, fn func()) int {
	r.handles = append(r.handles, r.At(t, fn))
	return len(r.handles) - 1
}

func (r *realSched) cancel(h int) bool { return r.Cancel(r.handles[h]) }

// refSched is the reference model: one slice kept sorted by (at, seq).
type refSched struct {
	now     Time
	seq     uint64
	pending []*refEvent
	all     []*refEvent
}

type refEvent struct {
	at   Time
	seq  uint64
	fn   func()
	done bool // ran or canceled
}

func (r *refSched) Now() Time    { return r.now }
func (r *refSched) Pending() int { return len(r.pending) }

func (r *refSched) NextAt() Time {
	if len(r.pending) == 0 {
		return MaxTime
	}
	return r.pending[0].at
}

func (r *refSched) at(t Time, fn func()) int {
	ev := &refEvent{at: t, seq: r.seq, fn: fn}
	r.seq++
	i := sort.Search(len(r.pending), func(i int) bool {
		p := r.pending[i]
		return p.at > ev.at || (p.at == ev.at && p.seq > ev.seq)
	})
	r.pending = append(r.pending, nil)
	copy(r.pending[i+1:], r.pending[i:])
	r.pending[i] = ev
	r.all = append(r.all, ev)
	return len(r.all) - 1
}

func (r *refSched) cancel(h int) bool {
	ev := r.all[h]
	if ev.done {
		return false
	}
	ev.done = true
	for i, p := range r.pending {
		if p == ev {
			r.pending = append(r.pending[:i], r.pending[i+1:]...)
			break
		}
	}
	return true
}

func (r *refSched) Step() bool {
	if len(r.pending) == 0 {
		return false
	}
	ev := r.pending[0]
	r.pending = r.pending[1:]
	ev.done = true
	r.now = ev.at
	ev.fn()
	return true
}

func (r *refSched) Run(until Time) Time {
	for len(r.pending) > 0 && r.pending[0].at <= until {
		r.Step()
	}
	if r.now < until && until != MaxTime {
		r.now = until
	}
	return r.now
}

func (r *refSched) RunBefore(horizon Time) {
	for len(r.pending) > 0 && r.pending[0].at < horizon {
		r.Step()
	}
}

func (r *refSched) RunAll() Time {
	for r.Step() {
	}
	return r.now
}

// progDelays are the delays a program byte below 128 selects: the
// testbed's constant per-hop delays, 0, the bitmap word edges, the wheel
// span and its neighbours, multiples of the span (same slot, later lap),
// and far-future values that always land in the heap. Bytes from 128 up
// select (b-128)*17, a sweep across the span boundary.
var progDelays = []Time{
	0, 1, 2, 57, 63, 64, 65, 80, 100, 320, 600, 1000,
	wheelSpan - 2, wheelSpan - 1, wheelSpan, wheelSpan + 1,
	2*wheelSpan - 1, 2 * wheelSpan, 2*wheelSpan + 1, 3 * wheelSpan,
	5000, 100_000, 4_000_000,
}

func progDelay(b byte) Time {
	if b < 128 {
		return progDelays[int(b)%len(progDelays)]
	}
	return Time(b-128) * 17
}

// runProgram interprets prog against s and returns everything observable.
// Each op is an opcode byte and one argument byte (two for opSpawn):
//
//	0 Schedule(delay)          4 Step
//	1 At(now+delay)            5 Run(now+delay)
//	2 spawn: Schedule(delay) of an event that, when it runs, schedules a
//	  child after a second delay (0 included: same instant, from inside
//	  its own callback)
//	3 Cancel of the arg-th handle (from 128 up: counting back from the
//	  newest), whatever became of its event
//	6 RunBefore(now+delay)     7 RunAll
const (
	opSchedule = iota
	opAt
	opSpawn
	opCancel
	opStep
	opRun
	opRunBefore
	opRunAll
	numOps
)

func runProgram(s sched, prog []byte) []observation {
	var trace []observation
	nextID, handles := 0, 0
	see := func(what string, v ...int64) {
		o := observation{what: what}
		copy(o.v[:], v)
		trace = append(trace, o)
	}
	flag := func(b bool) int64 {
		if b {
			return 1
		}
		return 0
	}
	leaf := func() func() {
		id := nextID
		nextID++
		return func() { see("event id ran at", int64(id), int64(s.Now())) }
	}
	for i := 0; i+1 < len(prog); i += 2 {
		op, d := prog[i]%numOps, progDelay(prog[i+1])
		switch op {
		case opSchedule, opAt:
			s.at(s.Now()+d, leaf())
			handles++
		case opSpawn:
			var childDelay Time
			if i+2 < len(prog) {
				childDelay = progDelay(prog[i+2])
				i++
			}
			run := leaf()
			s.at(s.Now()+d, func() {
				run()
				s.at(s.Now()+childDelay, leaf())
				handles++
			})
			handles++
		case opCancel:
			if handles > 0 {
				h := int(prog[i+1]) % handles
				if prog[i+1] >= 128 { // count back from the newest handle
					h = handles - 1 - int(prog[i+1]-128)%handles
				}
				see("Cancel returned", flag(s.cancel(h)))
			}
		case opStep:
			see("Step returned", flag(s.Step()))
		case opRun:
			see("Run returned", int64(s.Run(s.Now()+d)))
		case opRunBefore:
			s.RunBefore(s.Now() + d)
		case opRunAll:
			see("RunAll returned", int64(s.RunAll()))
		}
		see("after op: Now, Pending, NextAt", int64(op), int64(s.Now()), int64(s.Pending()), int64(s.NextAt()))
	}
	see("final RunAll returned, Pending", int64(s.RunAll()), int64(s.Pending()))
	return trace
}

// observation is one thing a program saw: what, and the values.
type observation struct {
	what string
	v    [4]int64
}

// checkProgram runs prog on the two-tier queue and on the reference model
// and fails on the first observable difference.
func checkProgram(t *testing.T, prog []byte) {
	t.Helper()
	got := runProgram(&realSched{Simulator: New()}, prog)
	want := runProgram(&refSched{}, prog)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Fatalf("program %v: observation %d: got %v, reference %v", prog, i, got[i], want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("program %v: %d observations, reference %d", prog, len(got), len(want))
	}
}

// delayByte returns the program byte selecting delay d.
func delayByte(d Time) byte {
	for i, v := range progDelays {
		if v == d {
			return byte(i)
		}
	}
	panic(fmt.Sprintf("delay %d is not in progDelays", d))
}

// directedPrograms are the cases the two tiers make delicate, each a short
// program: the directed test checks each against the reference, and they
// are FuzzScheduler's seeds.
var directedPrograms = func() []struct {
	name string
	prog []byte
} {
	d := delayByte
	var laps []byte
	for i := 0; i < 60; i++ {
		laps = append(laps, opSchedule, d(100), opAt, d(1000), opSchedule, d(80), opStep, 0, opStep, 0, opRun, d(80))
	}
	return []struct {
		name string
		prog []byte
	}{
		{"span boundary", []byte{
			opSchedule, d(wheelSpan + 1), opSchedule, d(wheelSpan), opSchedule, d(wheelSpan - 1),
			opSchedule, d(wheelSpan - 2), opStep, 0, opStep, 0, opRunAll, 0,
		}},
		{"wheel event ties with an older heap event", []byte{
			opSchedule, d(2 * wheelSpan), opRun, d(wheelSpan + 1), // the clock moves within span of it
			opSchedule, d(wheelSpan - 1), opAt, d(wheelSpan - 1), opRunAll, 0,
		}},
		{"same slot, next lap", []byte{
			opSchedule, d(100), opSchedule, d(100), opSchedule, d(wheelSpan), opSchedule, d(2 * wheelSpan),
			opRun, d(100), opSchedule, d(wheelSpan), opSchedule, d(3 * wheelSpan), opRunAll, 0,
		}},
		{"run jumps over many empty slots, then wraps", []byte{
			opSchedule, d(1), opRun, d(100_000), opSchedule, d(1000), opSchedule, d(64), opSchedule, d(63),
			opRunBefore, d(1000), opRun, d(4_000_000), opSchedule, d(0), opStep, 0,
		}},
		{"cancel in every tier and state", []byte{
			opSchedule, d(100), opSchedule, d(100), opSchedule, d(100), // one slot: head, middle, tail
			opSchedule, d(5000), opSchedule, d(100_000), // heap
			opCancel, 1, opCancel, 2, opCancel, 0, opCancel, 0, // middle, tail, head, again
			opCancel, 3, opStep, 0, opCancel, 4, // heap-resident, then one that already ran
			opSchedule, d(2), opCancel, 4, // stale handle whose event was recycled
			opCancel, 128, opRunAll, 0, // counted back from the newest
		}},
		{"push behind a canceled slot tail", []byte{
			opSchedule, d(100), opSchedule, d(100), opSchedule, d(100), opCancel, 2, // tail goes
			opSchedule, d(100), opCancel, 1, opSchedule, d(100), opRunAll, 0, // the FIFO must still link up
		}},
		{"self-rescheduling at delay zero", []byte{
			opSpawn, d(0), d(0), opSpawn, d(80), d(0), opSpawn, d(wheelSpan), d(wheelSpan - 1),
			opSchedule, d(80), opRunAll, 0,
		}},
		// The testbed's constant per-hop delays, stepped through several laps.
		{"per-hop delays lap the wheel", laps},
	}
}()

// TestSchedulerDirectedPrograms checks each directed program against the
// reference.
func TestSchedulerDirectedPrograms(t *testing.T) {
	for _, p := range directedPrograms {
		t.Run(p.name, func(t *testing.T) { checkProgram(t, p.prog) })
	}
}

// TestSchedulerMatchesReference runs seeded random programs, long enough
// for the clock to lap the wheel many times.
func TestSchedulerMatchesReference(t *testing.T) {
	rng := NewStream(14, "scheduler-programs")
	for n := 0; n < 300; n++ {
		prog := make([]byte, 2*(20+rng.Intn(400)))
		for i := range prog {
			prog[i] = byte(rng.Intn(256))
		}
		// Scheduling ops twice as likely as the rest, so queues build up.
		for i := 0; i < len(prog); i += 2 {
			if rng.Intn(3) == 0 {
				prog[i] = byte(rng.Intn(3))
			}
		}
		checkProgram(t, prog)
	}
}

// FuzzScheduler is the same differential check under coverage guidance,
// seeded with the directed programs.
func FuzzScheduler(f *testing.F) {
	for _, p := range directedPrograms {
		f.Add(p.prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 4096 {
			prog = prog[:4096]
		}
		checkProgram(t, prog)
	})
}

// TestTierPlacement: an event due less than the span ahead is
// wheel-resident, one due exactly the span ahead or later is
// heap-resident, and neither ever moves.
func TestTierPlacement(t *testing.T) {
	s := New()
	s.Run(5000) // off zero, so slot indices wrap
	for _, c := range []struct {
		d     Time
		wheel bool
	}{{0, true}, {wheelSpan - 1, true}, {wheelSpan, false}, {wheelSpan + 1, false}} {
		h := s.Schedule(c.d, func() {})
		if got := h.ev.index == inWheel; got != c.wheel {
			t.Errorf("delay %d: wheel-resident = %v, want %v", c.d, got, c.wheel)
		}
	}
	if len(s.heap) != 2 || s.Pending() != 4 {
		t.Errorf("heap holds %d of %d pending events; want 2 of 4", len(s.heap), s.Pending())
	}
	s.RunBefore(5000 + wheelSpan) // the heap events are now within the span
	if s.wheel.first != nil || len(s.heap) != 2 || s.Pending() != 2 {
		t.Errorf("after the wheel drained: first %v, heap %d, pending %d; heap events must not migrate",
			s.wheel.first, len(s.heap), s.Pending())
	}
	s.RunAll()
	if s.wheel.words != [wheelSpan / 64]uint64{} || s.wheel.summary != 0 || s.wheel.first != nil {
		t.Errorf("drained wheel leaves occupancy bits %x, summary %b, first %v", s.wheel.words, s.wheel.summary, s.wheel.first)
	}
}

// TestEventStaysInSizeClass: a pending event must stay in the 48-byte
// allocation class; one more word would put all of them in the 64-byte
// class and show in the testbed's live heap.
func TestEventStaysInSizeClass(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 48 {
		t.Errorf("event is %d bytes; the budget is the 48-byte class", size)
	}
}
