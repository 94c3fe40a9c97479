package main

import (
	"container/heap"
	"time"
)

// The host probe is a fixed kernel the benchmark owns, shaped like the
// system's hot loops: an event heap of pointers, look-ups in a hash map
// far larger than the private caches, and half as much plain arithmetic
// again as those take on a calm host. It is sampled before every round.
// On this shared host the neighbours' load on the shared cache and memory
// moves a run's median round and its median probe together (correlation
// 0.7–0.96 over 30 s windows), so the three time metrics are reported at
// the reference host's speed: scaled by probeNominalMs ÷ the run's median
// probe. See README, "Noise findings", for what that buys, what it does
// not, and what was tried first.
//
// A sample allocates nothing, so it neither triggers a collection nor
// leaves garbage to the round that follows.
const (
	probeKeys   = 500_000 // map entries
	probeEvents = 32768   // events in the heap
	probeSteps  = 100_000
	// probeWarmSteps run untimed before every sample: straight after a
	// round the probe's tables are out of every cache, and what a sample
	// should read is the host, not what the round left behind.
	probeWarmSteps = 40_000
	// probeALU is the arithmetic a step adds to its map look-up and its
	// heap pop and push: about half their time on a calm host. A probe
	// that only misses the cache swings further than the workloads do when
	// the host slows, and dividing by it over-corrects (README).
	probeALU = 110
	// probeNominalMs is one sample on the 2-vCPU reference host in a calm
	// hour. It only fixes the scale: on another host every time metric
	// moves by one constant factor, which no comparison sees.
	probeNominalMs = 66.0
)

type probeEvent struct {
	at uint64
	_  [4]uint64
}

type probeHeap []*probeEvent

func (h probeHeap) Len() int           { return len(h) }
func (h probeHeap) Less(i, j int) bool { return h[i].at < h[j].at }
func (h probeHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *probeHeap) Push(x any)        { *h = append(*h, x.(*probeEvent)) }
func (h *probeHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

type hostProbe struct {
	nKeys  int // map entries: probeKeys, fewer in a smoke run
	keys   []uint64
	table  map[uint64]uint32
	events []*probeEvent
	heap   probeHeap
	sink   uint64
}

// build allocates the probe's tables: some 30 MB of Go heap, which
// release hands back before live_heap_mb is read.
func (p *hostProbe) build() {
	r := rng{s: 3}
	p.keys = make([]uint64, p.nKeys)
	p.table = make(map[uint64]uint32, p.nKeys)
	for i := range p.keys {
		p.keys[i] = r.next()
		p.table[p.keys[i]] = uint32(i)
	}
	p.events = make([]*probeEvent, probeEvents)
	for i := range p.events {
		p.events[i] = &probeEvent{}
	}
	p.heap = make(probeHeap, 0, probeEvents)
}

func (p *hostProbe) release() { *p = hostProbe{nKeys: p.nKeys} }

// sample warms the tables up, then times steps steps and returns the
// milliseconds they took. The work is the same on every call.
func (p *hostProbe) sample(steps int) float64 {
	if p.table == nil {
		p.build()
	}
	p.run(probeWarmSteps * steps / probeSteps)
	return p.run(steps)
}

func (p *hostProbe) run(steps int) float64 {
	r := rng{s: 11}
	p.heap = p.heap[:0]
	for _, e := range p.events {
		e.at = r.next() >> 20
		p.heap = append(p.heap, e)
	}
	heap.Init(&p.heap)
	var acc uint64
	start := time.Now()
	for s := 0; s < steps; s++ {
		e := heap.Pop(&p.heap).(*probeEvent)
		v := uint64(p.table[p.keys[r.intn(len(p.keys))]])
		for k := 0; k < probeALU; k++ {
			v = v*6364136223846793005 + 1442695040888963407
		}
		acc += v
		e.at += r.next()>>30 + v>>63
		heap.Push(&p.heap, e)
	}
	p.sink += acc
	return float64(time.Since(start)) / 1e6
}
