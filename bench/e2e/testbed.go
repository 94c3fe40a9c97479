package main

import (
	"time"

	"netseer/internal/batcher"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/experiments"
	"netseer/internal/fevent"
	"netseer/internal/fpelim"
	"netseer/internal/groupcache"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	traffic "netseer/internal/workload"
)

// testbedWorkload runs the paper's 10-switch testbed with every event
// type firing. sim, link, dataplane and core do all the work; no
// collector TCP, WAL or query code runs, so a scheduler change must show
// here and on no other workload.
type testbedWorkload struct {
	cfg experiments.RunConfig
	tb  *experiments.Testbed

	// Reference outputs from the verification round: every later round
	// must reproduce them exactly.
	refDigest  uint64
	refPackets uint64

	// Traced-round instruments and what they collected, one entry per
	// traced round.
	sink    *timedSink
	tels    []*timedTelemetry
	pending []int
	tr      tracedTestbed
}

type tracedTestbed struct {
	eventsPerPkt, pendingMean, pendingMax []float64
	telNsPerPkt, sinkNsPerEvent           []float64
	telBusyS, sinkBusyS                   []float64
	simEvents                             []float64
	stats                                 core.Stats
	groupIngested, groupReported          uint64
	elimSeen, elimDup                     uint64
	batchPushed                           uint64
}

func (w *testbedWorkload) name() string    { return "testbed_web" }
func (w *testbedWorkload) unit() string    { return "simulated packets" }
func (w *testbedWorkload) op() string      { return "one Testbed.Run()" }
func (w *testbedWorkload) baseRounds() int { return 13 }

// trafficSeed is the one traffic seed every run uses. WEB flow sizes are
// heavy-tailed: over a 10 ms window the traffic seed alone moves a
// round's packet count by ±25 % and its packets per second by ±7 %, more
// than any bound here allows ten seeds to differ by, and a quarter of
// traffic seeds send no packet into the blackhole window, so the
// pipeline-drop coverage check has nothing to check. The traffic is
// therefore a constant, and -seed drives the other random input, the
// fabric's link-fault process (which packets the lossy link drops): the
// inputs follow the seed, the amount of work does not.
const trafficSeed = 1

// newTestbed builds the testbed with its fault processes seeded by
// cfg.Seed and its traffic generator by trafficSeed. NewTestbed seeds
// both from cfg.Seed; the generator it built has scheduled nothing yet,
// so replacing it is all it takes.
func newTestbed(cfg experiments.RunConfig) *experiments.Testbed {
	tb := experiments.NewTestbed(cfg)
	c := tb.Cfg // defaults applied
	tb.Gen = traffic.NewGenerator(tb.Sim, tb.Hosts[:c.Clients], tb.Hosts[c.Clients:], traffic.GenConfig{
		Dist: c.Dist, Load: c.Load, FanIn: c.FanIn, Seed: trafficSeed,
	})
	return tb
}

// Coverage floors per event class, as internal/experiments asserts them
// (TestFig9Shape): loss on a link and the incast burst may exceed the
// ring and the MMU-redirect budget slightly; the rest must be complete.
var coverageFloors = []struct {
	class string
	floor float64
	truth func(gt *dataplane.GroundTruth) map[dataplane.FlowEventKey]int
}{
	{"path change", 0.999, func(gt *dataplane.GroundTruth) map[dataplane.FlowEventKey]int {
		return gt.PathChangeFlowEvents(true)
	}},
	{"MMU drop", 0.90, func(gt *dataplane.GroundTruth) map[dataplane.FlowEventKey]int {
		return gt.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropMMUCongestion })
	}},
	{"inter-switch drop", 0.90, func(gt *dataplane.GroundTruth) map[dataplane.FlowEventKey]int {
		return gt.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropInterSwitch })
	}},
	{"pipeline drop", 0.999, func(gt *dataplane.GroundTruth) map[dataplane.FlowEventKey]int {
		return gt.DropFlowEvents(fevent.DropCode.IsPipeline)
	}},
}

// prepare is the verification round: ground truth on, NetSeer's coverage
// per event class checked against the floors, and the digest and packet
// count every timed round must reproduce recorded.
func (w *testbedWorkload) prepare(e *env) error {
	w.cfg = experiments.RunConfig{
		Dist: traffic.WEB, Load: 0.70, Window: e.sc.window, NetSeer: true,
		Seed:           e.cfg.seed,
		InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
	}
	tb := newTestbed(w.cfg)
	tb.Run()
	det := tb.NetSeerDetections()
	for _, c := range coverageFloors {
		truth := c.truth(tb.GT)
		cov := experiments.Coverage(truth, det)
		e.led.check(len(truth) > 0 && cov >= c.floor,
			"testbed_web: NetSeer %s coverage %.3f over %d ground-truth flow events, want ≥ %.3f", c.class, cov, len(truth), c.floor)
		e.logf("  verify: %-18s coverage %.3f of %d", c.class, cov, len(truth))
	}
	w.refDigest = experiments.CanonicalDigest(tb.Store)
	w.refPackets = tb.NetSeerStats().RawPackets
	e.logf("  verify: digest %016x, %d packets, %d events stored", w.refDigest, w.refPackets, tb.Store.Len())
	if e.cfg.fault.flipDigest {
		w.refDigest ^= 0xff
	}
	return nil
}

func (w *testbedWorkload) newRound(e *env, r *round) error {
	if !r.traced {
		w.tb = newTestbed(w.cfg)
		w.tb.GT.Enabled = false
		return nil
	}
	// Traced: build without NetSeer, then attach it the way NewTestbed
	// does but through benchmark-owned wrappers — an EventSink around
	// the store and a Telemetry around each NetSeerSwitch. The round's
	// digest check proves the wrapped build behaves identically.
	off := w.cfg
	off.NetSeer = false
	tb := newTestbed(off)
	tb.GT.Enabled = false
	w.sink = &timedSink{inner: tb.Store}
	w.tels = w.tels[:0]
	tb.Fab.EachSwitch(func(sw *dataplane.Switch) {
		ns := core.Attach(sw, tb.Cfg.NSCfg, w.sink)
		tb.NetSeers = append(tb.NetSeers, ns)
		tel := &timedTelemetry{inner: ns}
		sw.SetTelemetry(tel)
		w.tels = append(w.tels, tel)
	})
	// Queue depth sampled every 100 µs of simulated time. One-shot
	// events, not a Ticker: a live ticker would keep RunAll from ever
	// draining.
	w.pending = w.pending[:0]
	for t := 100 * sim.Microsecond; t <= w.cfg.Window; t += 100 * sim.Microsecond {
		tb.Sim.At(t, func() { w.pending = append(w.pending, tb.Sim.Pending()) })
	}
	w.tb = tb
	return nil
}

func (w *testbedWorkload) run(e *env, r *round) error {
	start := time.Now()
	w.tb.Run()
	r.opsMs = append(r.opsMs, float64(time.Since(start))/1e6)
	r.units = int64(w.tb.NetSeerStats().RawPackets)
	e.led.op(nil)
	return nil
}

func (w *testbedWorkload) check(e *env, r *round) {
	digest := experiments.CanonicalDigest(w.tb.Store)
	packets := w.tb.NetSeerStats().RawPackets
	e.logf("           digest %016x", digest)
	e.led.check(digest == w.refDigest, "testbed_web round %d: digest %016x, want %016x", r.index, digest, w.refDigest)
	e.led.check(packets == w.refPackets, "testbed_web round %d: %d packets, want %d", r.index, packets, w.refPackets)
	if r.traced {
		w.collect(e, r)
	}
}

// collect folds one traced round's instruments into the layer ledger.
func (w *testbedWorkload) collect(e *env, r *round) {
	tb, t := w.tb, &w.tr
	st := tb.NetSeerStats()
	pkts := float64(st.RawPackets)
	t.stats = st
	t.simEvents = append(t.simEvents, float64(tb.Sim.Processed()))
	t.eventsPerPkt = append(t.eventsPerPkt, float64(tb.Sim.Processed())/pkts)
	sum, hi := 0, 0
	for _, p := range w.pending {
		sum += p
		if p > hi {
			hi = p
		}
	}
	t.pendingMean = append(t.pendingMean, float64(sum)/float64(len(w.pending)))
	t.pendingMax = append(t.pendingMax, float64(hi))

	clock := clockPairNs()
	var calls, busy int64
	for _, tel := range w.tels {
		calls += tel.calls
		busy += tel.busyNs
	}
	busy -= int64(float64(calls) * clock)
	t.telNsPerPkt = append(t.telNsPerPkt, float64(busy)/pkts)
	t.telBusyS = append(t.telBusyS, float64(busy)/1e9)
	sinkBusy := w.sink.busyNs - int64(float64(w.sink.calls)*clock)
	t.sinkNsPerEvent = append(t.sinkNsPerEvent, ratio(float64(sinkBusy), float64(w.sink.events)))
	t.sinkBusyS = append(t.sinkBusyS, float64(sinkBusy)/1e9)
	e.tr.aggregate("core.telemetry", r.span, r.index, calls, busy)
	e.tr.aggregate("collector.store.sink", r.span, r.index, w.sink.calls, sinkBusy)

	t.groupIngested, t.groupReported, t.elimSeen, t.elimDup, t.batchPushed = 0, 0, 0, 0, 0
	for _, ns := range tb.NetSeers {
		in, rep, _, _ := ns.TableStats()
		t.groupIngested += in
		t.groupReported += rep
		seen, dup, _ := ns.ElimStats()
		t.elimSeen += seen
		t.elimDup += dup
		pushed, _, _, _, _ := ns.BatchStats()
		t.batchPushed += pushed
	}
}

func (w *testbedWorkload) endRound(*env, *round, bool) error {
	w.tb = nil
	return nil
}

func (w *testbedWorkload) finish(*env) error { return nil }

// layers completes the testbed ledger: NetSeer-off ablation rounds for
// the base cost, then single-threaded replays of the scheduler and the
// three NetSeer stages at the counts the traced rounds saw.
func (w *testbedWorkload) layers(e *env, u untraced, lv layerValues) error {
	t := &w.tr
	pkts := u.units
	lv["sim.events_per_pkt"] = median(t.eventsPerPkt)
	lv["sim.pending_mean"] = median(t.pendingMean)
	lv["sim.pending_max"] = median(t.pendingMax)
	lv["core.telemetry_ns_per_pkt"] = median(t.telNsPerPkt)
	lv["collector.store.sink_ns_per_event"] = median(t.sinkNsPerEvent)
	st := t.stats
	lv["core.event_pkt_ratio"] = float64(st.EventPackets) / float64(st.RawPackets)
	lv["core.dedup_ratio"] = float64(st.DedupReports) / float64(st.EventPackets)
	lv["core.exported_events"] = float64(st.ExportedEvents)
	lv["core.lost_events"] = float64(st.LostMMURedirect + st.LostInternalPort + st.LostRingOverwrite + st.LostStackOverflow)

	// Ablation: the same traffic with NetSeer off covers sim, link,
	// dataplane and host; what NetSeer adds is the difference.
	off := w.cfg
	off.NetSeer = false
	var offWalls []float64
	for i := 0; i < len(t.eventsPerPkt); i++ {
		tb := newTestbed(off)
		tb.GT.Enabled = false
		d, _ := e.tr.timed("ablation.netseer_off", -1, i, func() error { tb.Run(); return nil })
		offWalls = append(offWalls, d.Seconds())
		var fwd, drops uint64
		tb.Fab.EachSwitch(func(sw *dataplane.Switch) {
			fwd += sw.Forwarded()
			for _, n := range sw.DropsByCode() {
				drops += n
			}
		})
		lv["dataplane.pkts_forwarded"] = float64(fwd)
		lv["dataplane.drops"] = float64(drops)
	}
	offWall := median(offWalls)
	lv["dataplane.base_ns_per_pkt"] = offWall * 1e9 / pkts
	lv["core.ns_per_pkt"] = (u.roundWallS - offWall) * 1e9 / pkts

	schedNs := replayScheduler(e, int(median(t.pendingMean)), int(median(t.simEvents)), w.cfg.Window)
	lv["sim.sched_ns_per_event"] = schedNs
	lv["sim.sched_share"] = schedNs * median(t.simEvents) / 1e9 / u.roundWallS

	groupNs := replayGroupCache(e, t.groupIngested, t.groupReported)
	elimNs := replayFPElim(e, t.elimSeen, t.elimDup)
	batchNs := replayBatcher(e, t.batchPushed)
	lv["groupcache.ns_per_offer"] = groupNs
	lv["fpelim.ns_per_offer"] = elimNs
	lv["batcher.ns_per_event"] = batchNs

	// Attributed: the NetSeer-off wall, the telemetry hooks (which
	// contain the group-cache offers and the batcher pushes), and what
	// runs from the batcher's own simulator events — its passes, the
	// eliminator and the sink.
	attributed := offWall + median(t.telBusyS) + median(t.sinkBusyS) +
		(batchNs*float64(t.batchPushed)+elimNs*float64(t.elimSeen))/1e9
	lv["trace.coverage"] = attributed / u.roundWallS
	return nil
}

// clockPairNs is what one start/stop pair of clock reads adds to a
// wrapper's measured interval; the wrappers subtract it per call.
func clockPairNs() float64 {
	const n = 200_000
	start := time.Now()
	var sink time.Duration
	for i := 0; i < n; i++ {
		t := time.Now()
		sink += time.Since(t)
	}
	_ = sink
	return float64(time.Since(start)) / n / 2
}

// timedSink is the EventSink wrapper around the store.
type timedSink struct {
	inner                 core.EventSink
	calls, events, busyNs int64
}

func (s *timedSink) Deliver(b *fevent.Batch) {
	start := time.Now()
	s.inner.Deliver(b)
	s.busyNs += int64(time.Since(start))
	s.calls++
	s.events += int64(len(b.Events))
}

// timedTelemetry wraps a NetSeerSwitch at the dataplane.Telemetry seam
// and sums the time spent inside its hooks.
type timedTelemetry struct {
	inner         *core.NetSeerSwitch
	calls, busyNs int64
}

func (t *timedTelemetry) done(start time.Time) {
	t.busyNs += int64(time.Since(start))
	t.calls++
}

func (t *timedTelemetry) IngressData(p *pkt.Packet, port int) {
	defer t.done(time.Now())
	t.inner.IngressData(p, port)
}

func (t *timedTelemetry) HandleLossNotify(p *pkt.Packet, port int) {
	defer t.done(time.Now())
	t.inner.HandleLossNotify(p, port)
}

func (t *timedTelemetry) PipelineForward(p *pkt.Packet, inPort, outPort, queue int, queuePaused bool) {
	defer t.done(time.Now())
	t.inner.PipelineForward(p, inPort, outPort, queue, queuePaused)
}

func (t *timedTelemetry) OnPipelineDrop(p *pkt.Packet, inPort int, code fevent.DropCode, aclRule int) {
	defer t.done(time.Now())
	t.inner.OnPipelineDrop(p, inPort, code, aclRule)
}

func (t *timedTelemetry) OnMMUDrop(p *pkt.Packet, inPort, outPort, queue int) {
	defer t.done(time.Now())
	t.inner.OnMMUDrop(p, inPort, outPort, queue)
}

func (t *timedTelemetry) OnDequeue(p *pkt.Packet, outPort, queue int, qdelay sim.Time) {
	defer t.done(time.Now())
	t.inner.OnDequeue(p, outPort, queue, qdelay)
}

func (t *timedTelemetry) EgressData(p *pkt.Packet, outPort int) {
	defer t.done(time.Now())
	t.inner.EgressData(p, outPort)
}

func (t *timedTelemetry) OnCorruptFrame(port int) {
	defer t.done(time.Now())
	t.inner.OnCorruptFrame(port)
}

// BeginBurst and EndBurst implement dataplane.BurstTelemetry; EndBurst is
// where NetSeer hands the burst's records to the batcher.
func (t *timedTelemetry) BeginBurst(n int) { t.inner.BeginBurst(n) }

func (t *timedTelemetry) EndBurst() {
	defer t.done(time.Now())
	t.inner.EndBurst()
}

// replayCap bounds a replay's length; past it the per-item cost has long
// settled.
const replayCap = 2_000_000

// schedDelays is the testbed's constant-delay mix: CEBP recirculation,
// 724 B and 1500 B serialisation at 25 Gb/s, the switch pipeline and
// link propagation.
var schedDelays = [5]sim.Time{100, 232, 480, 600, 1000}

// replayScheduler measures Schedule+Step of no-op events on a fresh
// simulator — the classic hold model, shaped like the run: the queue
// holds depth events, of which only the ones in flight (event rate × mean
// delay) are near-term and churn, drawing delays from schedDelays; the
// rest stand far in the future, as pre-scheduled flow arrivals do, and
// only lengthen every sift.
func replayScheduler(e *env, depth, events int, window sim.Time) float64 {
	meanDelay := sim.Time(0)
	for _, d := range schedDelays {
		meanDelay += d / sim.Time(len(schedDelays))
	}
	inFlight := int(float64(events) / float64(window) * float64(meanDelay))
	if inFlight < 1 {
		inFlight = 1
	}
	if events > replayCap {
		events = replayCap
	}
	s := sim.New()
	r := rng{s: e.cfg.seed}
	nop := func() {}
	for i := inFlight; i < depth; i++ {
		s.Schedule(sim.Second+sim.Time(r.intn(int(sim.Second))), nop)
	}
	for i := 0; i < inFlight; i++ {
		s.Schedule(schedDelays[r.intn(len(schedDelays))], nop)
	}
	d, _ := e.tr.timed("replay.sim.sched", -1, -1, func() error {
		for i := 0; i < events; i++ {
			s.Step()
			s.Schedule(schedDelays[r.intn(len(schedDelays))], nop)
		}
		return nil
	})
	return float64(d) / float64(events)
}

// replayEvents builds n congestion events cycling over distinct flow
// keys, the shape the stages see: many packets of few flow events.
func replayEvents(seed uint64, n, distinct int) []fevent.Event {
	if distinct < 1 {
		distinct = 1
	}
	evs := make([]fevent.Event, n)
	r := rng{s: seed}
	for i := range evs {
		f := genFlow(seed, r.intn(distinct))
		evs[i] = fevent.Event{Type: fevent.TypeCongestion, Flow: f, Hash: f.Hash(),
			EgressPort: 1, QueueLatencyUs: uint16(10 + i%100), Count: 1}
	}
	return evs
}

func capCount(n uint64) int {
	if n > replayCap {
		return replayCap
	}
	if n < 1 {
		return 1
	}
	return int(n)
}

func replayGroupCache(e *env, ingested, reported uint64) float64 {
	n := capCount(ingested)
	distinct := int(float64(reported) / float64(ingested+1) * float64(n))
	evs := replayEvents(e.cfg.seed, n, distinct)
	tab := groupcache.New(groupcache.DefaultSlots, groupcache.DefaultC, func(*fevent.Event) {})
	d, _ := e.tr.timed("replay.groupcache", -1, -1, func() error {
		for i := range evs {
			tab.Offer(&evs[i])
		}
		return nil
	})
	return float64(d) / float64(n)
}

func replayFPElim(e *env, seen, dup uint64) float64 {
	n := capCount(seen)
	distinct := int(float64(seen-dup) / float64(seen+1) * float64(n))
	evs := replayEvents(e.cfg.seed, n, distinct)
	el := fpelim.New(fpelim.Config{}, func() sim.Time { return 0 })
	d, _ := e.tr.timed("replay.fpelim", -1, -1, func() error {
		for i := range evs {
			el.Offer(&evs[i])
		}
		return nil
	})
	return float64(d) / float64(n)
}

func replayBatcher(e *env, pushed uint64) float64 {
	n := capCount(pushed)
	evs := replayEvents(e.cfg.seed, n, n)
	s := sim.New()
	delivered := 0
	b := batcher.New(s, batcher.Config{}, func(bt *fevent.Batch) { delivered += len(bt.Events) })
	d, _ := e.tr.timed("replay.batcher", -1, -1, func() error {
		// Bursts of 64 keep the stack under its 512-event bound, as the
		// pipeline's EndBurst hand-off does; 1 µs of simulated time lets
		// the nine CEBPs pop them. A CEBP holding a partial payload
		// recirculates for ever, so the queue is run to a horizon, never
		// drained, until Flush and Stop end the circulation.
		for i := 0; i < n; i += 64 {
			end := i + 64
			if end > n {
				end = n
			}
			b.PushBurst(evs[i:end])
			s.Run(s.Now() + sim.Microsecond)
		}
		b.Flush()
		b.Stop()
		s.RunAll()
		return nil
	})
	if delivered != n {
		e.led.check(false, "batcher replay delivered %d of %d events", delivered, n)
	}
	return float64(d) / float64(n)
}
