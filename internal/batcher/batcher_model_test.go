package batcher

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// The differential test drives the Batcher and a reference model with the
// same program and requires the same observable behaviour. The model is
// the batcher as it was before CEBPs could go dormant: a CEBP holding a
// payload spends one simulator event on every pass, and only one that is
// empty over an empty stack parks. Where no two of the model's events
// share a nanosecond the two must agree on everything: every flush's
// instant and events in order, and all seven counters whenever the
// program reads them. Where some do, the model breaks the tie by
// scheduler sequence and the Batcher by its tie rule (package comment), so
// an event may ride in another CEBP, and a pass tied with a counter read or
// with the final Flush may pop on either side of it: only what is
// delivered, and how much, must agree.

// flushRec is one delivered batch.
type flushRec struct {
	at  sim.Time
	ids []uint32
}

// counters are the seven counters of Stats and PassStats.
type counters struct{ pushed, overflow, batches, delivered, portBytes, passes, pops uint64 }

func (c counters) String() string {
	return fmt.Sprintf("pushed %d overflow %d batches %d delivered %d portBytes %d passes %d pops %d",
		c.pushed, c.overflow, c.batches, c.delivered, c.portBytes, c.passes, c.pops)
}

func countersOf(b *Batcher) counters {
	var c counters
	c.pushed, c.overflow, c.batches, c.delivered, c.portBytes = b.Stats()
	c.passes, c.pops = b.PassStats()
	return c
}

// refCEBP and refBatcher are the reference model.
type refCEBP struct {
	payload   []fevent.Event
	idleSince sim.Time
	parked    bool
	passFn    func()
}

type refBatcher struct {
	cfg     Config
	sim     *sim.Simulator
	stack   []fevent.Event
	cebps   []*refCEBP
	stopped bool
	counters
	flushes []flushRec
	// busy counts the model's events (passes that ran, and the program's
	// operations) by instant: an instant with two is a tie.
	busy map[sim.Time]int
}

func newRef(s *sim.Simulator, cfg Config) *refBatcher {
	r := &refBatcher{cfg: cfg.withDefaults(), sim: s, busy: map[sim.Time]int{}}
	for i := 0; i < r.cfg.CEBPs; i++ {
		c := &refCEBP{}
		c.passFn = func() { r.pass(c) }
		r.cebps = append(r.cebps, c)
		s.Schedule(r.cfg.RecircLatency*sim.Time(i)/sim.Time(r.cfg.CEBPs), c.passFn)
	}
	return r
}

func (r *refBatcher) wire(n int) int { return 14 + fevent.BatchHeaderLen + fevent.RecordLen*n }

// pass is the spin-every-pass reference: it reschedules itself whatever
// it did, unless it carries nothing over an empty stack.
func (r *refBatcher) pass(c *refCEBP) {
	if r.stopped {
		return
	}
	now := r.sim.Now()
	r.busy[now]++
	r.passes++
	popped := false
	if n := len(r.stack); n > 0 {
		c.payload = append(c.payload, r.stack[n-1])
		r.stack = r.stack[:n-1]
		c.idleSince = now
		popped = true
		r.pops++
	}
	wire := r.wire(len(c.payload))
	next := max(r.cfg.RecircLatency, sim.Time(float64(wire*8)/r.cfg.InternalPortBps*1e9))
	r.portBytes += uint64(wire)
	if len(c.payload) >= r.cfg.BatchSize ||
		!popped && len(c.payload) > 0 && r.cfg.IdleFlush > 0 && now-c.idleSince >= r.cfg.IdleFlush {
		r.emit(c.payload)
		c.payload = c.payload[:0]
		next += r.cfg.FlushLatency
	}
	if !popped && len(c.payload) == 0 && len(r.stack) == 0 {
		c.parked = true
		return
	}
	r.sim.Schedule(next, c.passFn)
}

func (r *refBatcher) emit(evs []fevent.Event) {
	rec := flushRec{at: r.sim.Now()}
	for i := range evs {
		rec.ids = append(rec.ids, evs[i].Flow.SrcIP)
	}
	r.flushes = append(r.flushes, rec)
	r.batches++
	r.delivered += uint64(len(evs))
}

// push is Push per event: overflow check, append, wake one parked CEBP.
func (r *refBatcher) push(evs []fevent.Event) {
	for i := range evs {
		if len(r.stack) >= r.cfg.StackDepth {
			r.overflow++
			continue
		}
		r.pushed++
		r.stack = append(r.stack, evs[i])
		for _, c := range r.cebps {
			if c.parked {
				c.parked = false
				r.sim.Schedule(r.cfg.RecircLatency, c.passFn)
				break
			}
		}
	}
}

func (r *refBatcher) flush() {
	var evs []fevent.Event
	for _, c := range r.cebps {
		evs = append(evs, c.payload...)
		c.payload = c.payload[:0]
	}
	evs = append(evs, r.stack...)
	r.stack = r.stack[:0]
	for len(evs) > 0 {
		n := min(len(evs), r.cfg.BatchSize)
		r.emit(evs[:n])
		evs = evs[n:]
	}
}

// Program operations. A program is a byte string: each operation is an
// opcode byte and one argument byte, and runs gap nanoseconds after the
// one before it (the gap comes from the argument too, so that a program
// is a pure function of its bytes).
const (
	opPush  = iota // push one event
	opBurst        // push arg%40+1 events as one PushBurst
	opStats        // read all seven counters
	opFlush
	opWait // let arg×640 ns pass
	opStop // Flush, Stop, read the counters; ends the program
	nOps
)

// modelCfg picks the configuration from a program's first byte: IdleFlush
// off or on, few or several CEBPs, and an internal port slow enough that
// a well-filled CEBP's pass is its serialization time, not the latency.
func modelCfg(b byte) Config {
	cfg := Config{BatchSize: 6, StackDepth: 24, CEBPs: 1 + int(b>>1)%4, RecircLatency: 1000, FlushLatency: 410,
		InternalPortBps: 1e9} // a pass carrying 5 events takes 1168 ns
	if b&1 != 0 {
		cfg.IdleFlush = 7000
	}
	return cfg
}

type modelRun struct {
	flushes  []flushRec
	reads    []counters // one per opStats, and the final one
	tied     bool
	events   uint64 // simulator events the run took
	nextID   uint32
	finalErr string
}

// runProgram runs prog on the Batcher (real) or the model. noStats skips
// the opStats reads, for the test that a scrape perturbs nothing.
func runProgram(prog []byte, real, noStats bool) modelRun {
	var run modelRun
	if len(prog) == 0 {
		return run
	}
	cfg := modelCfg(prog[0])
	s := sim.New()
	var b *Batcher
	var r *refBatcher
	if real {
		b = New(s, cfg, func(bt *fevent.Batch) {
			rec := flushRec{at: s.Now()}
			for i := range bt.Events {
				rec.ids = append(rec.ids, bt.Events[i].Flow.SrcIP)
			}
			run.flushes = append(run.flushes, rec)
		})
	} else {
		r = newRef(s, cfg)
	}
	read := func() {
		if real {
			run.reads = append(run.reads, countersOf(b))
		} else {
			run.reads = append(run.reads, r.counters)
		}
	}
	events := func(n int) []fevent.Event {
		evs := make([]fevent.Event, n)
		for i := range evs {
			run.nextID++
			evs[i] = *ev(run.nextID)
		}
		return evs
	}
	stopped := false
	do := func(op, arg byte) {
		if !real {
			r.busy[s.Now()]++
		}
		switch op {
		case opPush:
			if evs := events(1); real {
				b.Push(&evs[0])
			} else {
				r.push(evs)
			}
		case opBurst:
			if evs := events(int(arg)%40 + 1); real {
				b.PushBurst(evs)
			} else {
				r.push(evs)
			}
		case opStats:
			if !noStats {
				read()
			}
		case opFlush:
			if real {
				b.Flush()
			} else {
				r.flush()
			}
		case opWait:
		case opStop:
			if real {
				b.Flush()
				b.Stop()
			} else {
				r.flush()
				r.stopped = true
			}
			stopped = true
			read()
		}
	}
	// The operations are events of the simulation, so that a push can tie
	// with a pass the way a pipeline event does. Every other one is
	// scheduled before anything runs and so precedes a pass of its instant
	// in sequence order; the rest are scheduled as their turn comes and
	// follow it.
	type timedOp struct {
		at      sim.Time
		op, arg byte
	}
	var ops []timedOp
	at := sim.Time(0)
	for i := 1; i+1 < len(prog); i += 2 {
		op, arg := prog[i]%nOps, prog[i+1]
		gap := sim.Time(arg)*37 + 1
		if op == opWait {
			gap = sim.Time(arg) * 640
		}
		at += gap
		ops = append(ops, timedOp{at, op, arg})
	}
	ops = append(ops, timedOp{at + 1, opStop, 0})
	step := func(o timedOp) func() {
		return func() {
			if !stopped {
				do(o.op, o.arg)
			}
		}
	}
	for i := 0; i < len(ops); i += 2 {
		s.At(ops[i].at, step(ops[i]))
	}
	for i, o := range ops {
		if i%2 == 1 {
			s.At(o.at, step(o))
		}
		s.Run(o.at)
	}
	s.RunAll()
	run.events = s.Processed()
	if s.Pending() != 0 {
		run.finalErr = "events pending after Stop and RunAll"
	}
	if !real {
		run.flushes = r.flushes
		for _, n := range r.busy {
			if n > 1 {
				run.tied = true
			}
		}
	}
	return run
}

// delivered returns every delivered event id, sorted.
func delivered(fl []flushRec) []uint32 {
	var ids []uint32
	for _, f := range fl {
		ids = append(ids, f.ids...)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// checkBatcherProgram runs prog on both and compares them as strictly as
// its ties allow. It reports whether the schedule had a tie.
func checkBatcherProgram(t *testing.T, prog []byte) (tied bool) {
	t.Helper()
	want, got := runProgram(prog, false, false), runProgram(prog, true, false)
	if got.finalErr != "" {
		t.Fatalf("batcher: %s\nprogram %v", got.finalErr, prog)
	}
	if got.events > want.events {
		t.Fatalf("%d simulator events, more than the %d of spinning every pass\nprogram %v", got.events, want.events, prog)
	}
	if len(got.reads) != len(want.reads) {
		t.Fatalf("%d counter reads, model made %d\nprogram %v", len(got.reads), len(want.reads), prog)
	}
	if !want.tied {
		if !reflect.DeepEqual(got.flushes, want.flushes) {
			t.Fatalf("flushes differ on a tie-free schedule:\n got %v\nwant %v\nprogram %v", got.flushes, want.flushes, prog)
		}
		for i := range want.reads {
			if got.reads[i] != want.reads[i] {
				t.Fatalf("counter read %d differs on a tie-free schedule:\n got %v\nwant %v\nprogram %v", i, got.reads[i], want.reads[i], prog)
			}
		}
	} else {
		last := len(want.reads) - 1
		for i := range want.reads {
			if g, w := got.reads[i], want.reads[i]; g.pushed+g.overflow != w.pushed+w.overflow {
				t.Fatalf("counter read %d: offered events differ:\n got %v\nwant %v\nprogram %v", i, g, w, prog)
			}
		}
		g, w := delivered(got.flushes), delivered(want.flushes)
		for i := 1; i < len(g); i++ {
			if g[i] == g[i-1] {
				t.Fatalf("event %d delivered twice\nprogram %v", g[i], prog)
			}
		}
		if n := got.reads[last]; n.delivered != n.pushed || int(n.delivered) != len(g) {
			t.Fatalf("pushed %d, counted %d delivered, delivered %d\nprogram %v", n.pushed, n.delivered, len(g), prog)
		}
		// A pass tied with a push into a nearly full stack decides whether
		// the push's last event fits; without overflow on either side the
		// same events must come out.
		if got.reads[last].overflow == 0 && want.reads[last].overflow == 0 && !reflect.DeepEqual(g, w) {
			t.Fatalf("delivered events differ:\n got %v\nwant %v\nprogram %v", g, w, prog)
		}
	}
	// A scrape is not an event: the same program without its counter
	// reads flushes the same batches at the same instants.
	if quiet := runProgram(prog, true, true); !reflect.DeepEqual(quiet.flushes, got.flushes) {
		t.Fatalf("Stats calls changed the flushes:\n with %v\nwithout %v\nprogram %v", got.flushes, quiet.flushes, prog)
	}
	return want.tied
}

// randomProgram draws a program of n operations. A burst wakes every
// parked CEBP it has events for at one instant, and CEBPs woken together
// pass together, tied, for as long as they keep their payloads; so unless
// ties are wanted, only a program with one CEBP bursts, and the others
// build their backlog from runs of single pushes a few nanoseconds apart.
// With ties forced, every gap is a multiple of the recirculation latency
// instead, so pushes land on the lattices of the CEBPs they woke.
func randomProgram(seed int64, n int, forceTies bool) []byte {
	rng := rand.New(rand.NewSource(seed))
	prog := []byte{byte(rng.Intn(256))}
	dense := 0
	for i := 0; i < n; i++ {
		op := byte(rng.Intn(nOps - 1)) // opStop only ends a program
		arg := byte(rng.Intn(256))
		switch {
		case forceTies:
			// gap = 27×37+1 = 1000; 25×640 = 16000 for a wait.
			arg = 27
			if op == opWait {
				arg = 25
			}
		case dense > 0:
			dense--
			op, arg = opPush, byte(rng.Intn(4))
		case op == opBurst && modelCfg(prog[0]).CEBPs > 1:
			dense = rng.Intn(30)
			op = opPush
		}
		prog = append(prog, op, arg)
	}
	return prog
}

func TestBatcherModel(t *testing.T) {
	tieFree := 0
	for seed := int64(1); seed <= 200; seed++ {
		if !checkBatcherProgram(t, randomProgram(seed, 60, false)) {
			tieFree++
		}
	}
	// The exact comparison must not be vacuous.
	if tieFree < 50 {
		t.Errorf("only %d of 200 random programs were tie-free", tieFree)
	}
	tiedN := 0
	for seed := int64(1); seed <= 50; seed++ {
		if checkBatcherProgram(t, randomProgram(seed, 60, true)) {
			tiedN++
		}
	}
	if tiedN < 40 {
		t.Errorf("only %d of 50 forced-tie programs tied", tiedN)
	}
}

func FuzzBatcherModel(f *testing.F) {
	f.Add(randomProgram(1, 20, false))
	f.Add(randomProgram(2, 20, true))
	f.Add([]byte{1, opBurst, 30, opWait, 40, opStats, 3, opPush, 2, opFlush, 9, opStop, 0})
	f.Add([]byte{6, opPush, 0, opWait, 1, opPush, 0, opStats, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) > 512 {
			prog = prog[:512]
		}
		checkBatcherProgram(t, prog)
	})
}
