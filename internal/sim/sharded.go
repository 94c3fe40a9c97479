// Sharded conservative-lookahead parallel simulation.
//
// A ShardedEngine partitions a simulation into shards, each owning a
// private Simulator (its own event queue, clock and free list). Shards only
// interact through Defer — a cross-shard message with a delivery delay of
// at least the engine's lookahead. That bound makes the classic
// conservative synchronization sound: the engine repeatedly finds the
// earliest pending instant across all shards, lets every shard execute
// its events inside the window [next, next+lookahead) — in parallel, no
// locks — and then exchanges the buffered cross-shard messages at the
// barrier. A message sent inside a window can, by the lookahead bound,
// only be delivered at or after the window's end, so no shard ever
// receives an event in its past.
//
// Determinism is independent of the worker count: shards share no mutable
// state during a window, and barrier injection orders messages by the
// total key (deliverAt, source shard, per-source send sequence) before
// handing them to the destination heaps, so every run of the same
// configuration executes the exact same event sequence per shard — with
// 1 shard the engine degenerates to the sequential Simulator semantics.
package sim

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
)

// Shard is one partition of a sharded simulation: a private Simulator plus
// the outbox of cross-shard messages produced in the current window.
type Shard struct {
	id  int
	sim *Simulator
	eng *ShardedEngine

	// outbox buffers cross-shard sends until the window barrier; sendSeq
	// totally orders this shard's sends for deterministic injection.
	outbox  []xmsg
	sendSeq uint64
}

// xmsg is one buffered cross-shard message.
type xmsg struct {
	at       Time
	dst, src int
	seq      uint64
	fn       func()
}

// cmpXmsg orders messages by the total key (at, src, seq); being a plain
// function, sorting with it allocates nothing per window.
func cmpXmsg(a, b xmsg) int {
	return cmp.Or(cmp.Compare(a.at, b.at), cmp.Compare(a.src, b.src), cmp.Compare(a.seq, b.seq))
}

// ID returns the shard's index within its engine.
func (sh *Shard) ID() int { return sh.id }

// Sim returns the shard's private simulator. All components owned by the
// shard schedule on it; it must only be driven through the engine.
func (sh *Shard) Sim() *Simulator { return sh.sim }

// Defer schedules fn after delay d on the destination shard. Same-shard
// calls are ordinary local scheduling; cross-shard calls are buffered and
// injected at the next window barrier, and d must be at least the
// engine's lookahead (the conservative bound — violating it would deliver
// into the destination's past).
func (sh *Shard) Defer(dst *Shard, d Time, fn func()) {
	if dst == sh {
		sh.sim.Schedule(d, fn)
		return
	}
	if d < sh.eng.lookahead {
		panic(fmt.Sprintf("sim: cross-shard delay %v under lookahead %v", d, sh.eng.lookahead))
	}
	sh.outbox = append(sh.outbox, xmsg{at: sh.sim.now + d, dst: dst.id, src: sh.id, seq: sh.sendSeq, fn: fn})
	sh.sendSeq++
}

// DeliverTo returns a delivery function bound to the destination shard:
// fn(d, f) schedules f after d onto dst. Link wiring uses it so a frame's
// propagation lands on the receiving device's shard.
func (sh *Shard) DeliverTo(dst *Shard) func(d Time, fn func()) {
	if dst == sh {
		return func(d Time, fn func()) { sh.sim.Schedule(d, fn) }
	}
	return func(d Time, fn func()) { sh.Defer(dst, d, fn) }
}

// ShardedEngine synchronizes a set of shards with conservative lookahead
// windows. Construct with NewSharded, wire components onto the shard
// simulators, then drive with Run/Drain. The engine itself must be driven
// from a single goroutine.
type ShardedEngine struct {
	shards    []*Shard
	lookahead Time
	workers   int

	// inbox and active are reused scratch for the barrier exchange and
	// window worker dispatch.
	inbox  []xmsg
	active []*Shard

	windows   uint64 // synchronization windows executed
	exchanged uint64 // cross-shard messages delivered
}

// NewSharded creates an engine with n shards. lookahead is the minimum
// cross-shard delay (for a network partitioned at switch boundaries: the
// smallest propagation delay of any link whose endpoints live on
// different shards). workers bounds how many shards execute concurrently
// per window; 1 runs every shard inline on the driving goroutine with no
// goroutines at all.
func NewSharded(n int, lookahead Time, workers int) *ShardedEngine {
	if n <= 0 {
		panic("sim: sharded engine needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: lookahead must be positive")
	}
	if workers <= 0 {
		workers = 1
	}
	e := &ShardedEngine{lookahead: lookahead, workers: workers}
	for i := 0; i < n; i++ {
		e.shards = append(e.shards, &Shard{id: i, sim: New(), eng: e})
	}
	return e
}

// NumShards returns the shard count.
func (e *ShardedEngine) NumShards() int { return len(e.shards) }

// Shard returns shard i.
func (e *ShardedEngine) Shard(i int) *Shard { return e.shards[i] }

// Lookahead returns the conservative synchronization bound.
func (e *ShardedEngine) Lookahead() Time { return e.lookahead }

// SetWorkers changes the per-window concurrency. Safe between Run calls.
func (e *ShardedEngine) SetWorkers(n int) {
	if n <= 0 {
		n = 1
	}
	e.workers = n
}

// Windows returns how many synchronization windows have executed.
func (e *ShardedEngine) Windows() uint64 { return e.windows }

// Exchanged returns how many cross-shard messages have been delivered.
func (e *ShardedEngine) Exchanged() uint64 { return e.exchanged }

// Processed sums executed events across shards.
func (e *ShardedEngine) Processed() uint64 {
	var n uint64
	for _, sh := range e.shards {
		n += sh.sim.Processed()
	}
	return n
}

// nextAt returns the earliest pending instant across all shards.
func (e *ShardedEngine) nextAt() Time {
	next := MaxTime
	for _, sh := range e.shards {
		if t := sh.sim.NextAt(); t < next {
			next = t
		}
	}
	return next
}

// Run executes windows until every event at or before the until instant
// has run (events exactly at until execute, matching Simulator.Run), then
// advances every shard clock to until. It returns until.
func (e *ShardedEngine) Run(until Time) Time {
	for {
		next := e.nextAt()
		if next > until {
			break
		}
		end := next + e.lookahead
		if end < next {
			end = MaxTime // overflow clamp
		}
		if until != MaxTime && end > until+1 {
			// Shrinking the window is always safe; this one stops exactly
			// after the events at until.
			end = until + 1
		}
		e.runWindow(end)
		e.exchange()
	}
	if until != MaxTime {
		for _, sh := range e.shards {
			sh.sim.Run(until) // nothing left to execute; advances the clock
		}
	}
	return until
}

// Drain executes windows until no shard has pending events, then advances
// every shard clock to the globally latest executed instant — the sharded
// equivalent of Simulator.RunAll, which leaves the clock at the last
// event. It returns that instant.
func (e *ShardedEngine) Drain() Time {
	for {
		next := e.nextAt()
		if next == MaxTime {
			break
		}
		end := next + e.lookahead
		if end < next {
			end = MaxTime
		}
		e.runWindow(end)
		e.exchange()
	}
	var last Time
	for _, sh := range e.shards {
		if sh.sim.Now() > last {
			last = sh.sim.Now()
		}
	}
	for _, sh := range e.shards {
		sh.sim.Run(last)
	}
	return last
}

// runWindow executes every shard's events strictly before end. Shards are
// independent inside a window, so they run concurrently up to the worker
// bound; with one worker (or one active shard) everything runs inline.
func (e *ShardedEngine) runWindow(end Time) {
	e.windows++
	active := e.active[:0]
	for _, sh := range e.shards {
		if sh.sim.NextAt() < end {
			active = append(active, sh)
		}
	}
	e.active = active
	w := e.workers
	if w > len(active) {
		w = len(active)
	}
	if w <= 1 {
		for _, sh := range active {
			sh.sim.RunBefore(end)
		}
		return
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(w)
	for i := 0; i < w; i++ {
		go func() {
			defer wg.Done()
			for {
				j := int(atomic.AddInt64(&next, 1))
				if j >= len(active) {
					return
				}
				active[j].sim.RunBefore(end)
			}
		}()
	}
	wg.Wait()
}

// exchange moves every buffered cross-shard message into its destination
// heap. Messages are sorted by (deliverAt, source shard, source sequence)
// first: the injection order fixes the destination's tie-break sequence
// for same-instant deliveries, making it identical across worker counts
// and shard layouts.
func (e *ShardedEngine) exchange() {
	msgs := e.inbox[:0]
	for _, sh := range e.shards {
		msgs = append(msgs, sh.outbox...)
		sh.outbox = sh.outbox[:0]
	}
	if len(msgs) == 0 {
		e.inbox = msgs
		return
	}
	slices.SortFunc(msgs, cmpXmsg)
	for i := range msgs {
		m := &msgs[i]
		e.shards[m.dst].sim.At(m.at, m.fn)
		m.fn = nil
	}
	e.exchanged += uint64(len(msgs))
	e.inbox = msgs
}
