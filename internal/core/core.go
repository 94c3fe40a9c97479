// Package core implements NetSeer itself: the flow event telemetry
// extension that attaches to a dataplane.Switch (and, via internal/nic, to
// host NICs) and performs the paper's four-step pipeline entirely "in the
// data plane":
//
//	Step 1  event packet detection      (§3.3)  — pipeline/MMU/inter-switch
//	        drops, congestion, path change, pause
//	Step 2  event deduplication         (§3.4)  — group caching tables
//	Step 3  extraction & batching       (§3.4/5) — 24-byte records, CEBPs
//	Step 4  false-positive elimination  (§3.6)  — switch CPU, then reliable
//	        delivery to the backend
//
// Hardware capacity limits are modeled faithfully: MMU-drop redirection is
// bounded (~40 Gb/s), ingress-side event redirection shares the internal
// port (~100 Gb/s), and the inter-switch ring buffer can only recover what
// it still holds. Events beyond those budgets are lost and counted, which
// is exactly the coverage cliff §4 describes.
package core

import (
	"netseer/internal/batcher"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/fpelim"
	"netseer/internal/groupcache"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/ringbuf"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
	"netseer/internal/sketch"
)

// EventSink receives the batches that survive false-positive elimination.
// Implementations: collector.Store (in-process), collector.Client (TCP).
type EventSink interface {
	Deliver(b *fevent.Batch)
}

// Config parameterizes NetSeer on one switch. Zero fields take defaults.
type Config struct {
	// GroupSlots and GroupC size the per-event-type group caching tables
	// (defaults 4096 slots, C=128).
	GroupSlots int
	GroupC     uint16

	// PathSlots sizes the path-change flow table (default 8192 slots).
	PathSlots int

	// RingSlots is the per-port inter-switch ring buffer size (default
	// 1024 — the paper's 1,000-consecutive-drop sizing).
	RingSlots int
	// DisableSeq turns off inter-switch detection entirely (ablation).
	DisableSeq bool

	// Batch configures the CEBP batcher; SwitchID is filled automatically.
	Batch batcher.Config

	// MMURedirectBps bounds the MMU→internal-port drop redirection
	// (default 40 Gb/s, §4).
	MMURedirectBps float64
	// InternalPortBps bounds ingress-event redirection: pause + pipeline
	// drop + MMU drop share it (default 100 Gb/s, §4).
	InternalPortBps float64

	// FPElim configures the switch-CPU eliminator.
	FPElim fpelim.Config
	// ExportBps paces CPU→backend delivery (default 10 Gb/s).
	ExportBps float64

	// Sketch enables the sketch detection stage (count-min heavy-hitter
	// onset, space-saving top-K churn, per-link aggregate spikes — the
	// first detection family beyond the paper's fixed event set).
	Sketch bool
	// SketchCfg parameterizes the stage when Sketch is set; zero fields
	// take the sketch package defaults.
	SketchCfg sketch.Config
}

func (c Config) withDefaults() Config {
	if c.GroupSlots <= 0 {
		c.GroupSlots = groupcache.DefaultSlots
	}
	if c.GroupC == 0 {
		c.GroupC = groupcache.DefaultC
	}
	if c.PathSlots <= 0 {
		c.PathSlots = 8192
	}
	if c.RingSlots <= 0 {
		c.RingSlots = 1024
	}
	if c.MMURedirectBps <= 0 {
		c.MMURedirectBps = 40e9
	}
	if c.InternalPortBps <= 0 {
		c.InternalPortBps = 100e9
	}
	if c.ExportBps <= 0 {
		c.ExportBps = 10e9
	}
	return c
}

// Stats counts per-step volumes for the Fig. 13 accounting. Bytes at steps
// 1–2 are packet-sized (the data still travels as packets inside the
// pipeline); step 3 is 24-byte records; step 4 is encoded export batches.
type Stats struct {
	// RawPackets/RawBytes: all data-plane traffic the switch forwarded or
	// dropped while NetSeer watched.
	RawPackets, RawBytes uint64
	// EventPackets/EventBytes: packets selected by Step 1.
	EventPackets, EventBytes uint64
	// DedupReports/DedupBytes: flow events emitted by Step 2.
	DedupReports, DedupBytes uint64
	// ExtractedBytes: Step 3 output (24 B × reports) before batching.
	ExtractedBytes uint64
	// ExportedEvents/ExportedBytes: events and bytes that left the switch
	// CPU for the backend after Step 4. ExportedBatches counts the
	// delivery units handed to the sink — the denominator for the
	// reliable channel's retransmit/duplicate accounting.
	ExportedEvents, ExportedBytes, ExportedBatches uint64
	// SuppressedFPs: duplicate reports removed by the CPU.
	SuppressedFPs uint64

	// Capacity losses.
	LostMMURedirect   uint64 // MMU drops beyond the 40 Gb/s redirect
	LostInternalPort  uint64 // ingress events beyond the internal port
	LostRingOverwrite uint64 // inter-switch drops unrecoverable from the ring
	LostStackOverflow uint64 // events lost to a full batcher stack

	// Inter-switch bookkeeping.
	SeqGapsDetected  uint64 // gap episodes seen by downstream trackers
	NotifySent       uint64 // notification packets emitted (3× per gap)
	InterSwitchFound uint64 // victim packets recovered from the ring
}

// Add accumulates o into s field by field: the fabric-wide totals of
// per-switch stats.
func (s *Stats) Add(o Stats) {
	s.RawPackets += o.RawPackets
	s.RawBytes += o.RawBytes
	s.EventPackets += o.EventPackets
	s.EventBytes += o.EventBytes
	s.DedupReports += o.DedupReports
	s.DedupBytes += o.DedupBytes
	s.ExtractedBytes += o.ExtractedBytes
	s.ExportedEvents += o.ExportedEvents
	s.ExportedBytes += o.ExportedBytes
	s.ExportedBatches += o.ExportedBatches
	s.SuppressedFPs += o.SuppressedFPs
	s.LostMMURedirect += o.LostMMURedirect
	s.LostInternalPort += o.LostInternalPort
	s.LostRingOverwrite += o.LostRingOverwrite
	s.LostStackOverflow += o.LostStackOverflow
	s.SeqGapsDetected += o.SeqGapsDetected
	s.NotifySent += o.NotifySent
	s.InterSwitchFound += o.InterSwitchFound
}

// pathExpiry is how long a path-change table entry stays fresh: a flow
// seen again on the same port pair after this long is reported anew.
const pathExpiry = 10 * sim.Millisecond

// pathEntry is one slot of the path-change flow table.
type pathEntry struct {
	used     bool
	flow     pkt.FlowKey
	in, out  uint8
	lastSeen sim.Time
}

// tokenBucket is a strict capacity model: work beyond the budget is lost,
// not delayed (hardware redirection has no queue to wait in).
type tokenBucket struct {
	bps    float64
	bits   float64
	maxBit float64
	last   sim.Time
}

func newTokenBucket(bps float64, burstBytes int) *tokenBucket {
	b := float64(burstBytes * 8)
	return &tokenBucket{bps: bps, bits: b, maxBit: b}
}

// tryTake consumes n bytes of budget at time now, reporting success.
func (t *tokenBucket) tryTake(now sim.Time, n int) bool {
	if now > t.last {
		t.bits += (now - t.last).Seconds() * t.bps
		if t.bits > t.maxBit {
			t.bits = t.maxBit
		}
		t.last = now
	}
	bits := float64(n * 8)
	if t.bits < bits {
		return false
	}
	t.bits -= bits
	return true
}

// NetSeerSwitch is the per-switch NetSeer instance. It implements
// dataplane.Telemetry.
type NetSeerSwitch struct {
	sw  *dataplane.Switch
	cfg Config
	sim *sim.Simulator
	// congThreshold is the switch's own congestion threshold, copied at
	// Attach so the per-packet OnDequeue does not call sw.Config().
	congThreshold sim.Time

	// Step 2 state.
	dropTable *groupcache.Table
	congTable *groupcache.Table
	pauseTab  *groupcache.Table
	aclAgg    *groupcache.ACLAggregator
	pathTable []pathEntry

	// Inter-switch state (per port).
	nextSeq  []uint32
	rings    []*ringbuf.Ring
	trackers []*seqtrack.Tracker
	seqOn    []bool
	portCode []fevent.DropCode       // drop code reported for recoveries per port
	pending  [][]uint32              // per-port packet IDs awaiting ring lookup
	lastGap  []seqtrack.Notification // last processed notification per port (dedup of 3× copies)

	// Step 3.
	batcher *batcher.Batcher
	// Burst extraction buffering: while the data plane runs a pipeline
	// burst (between BeginBurst and EndBurst), extracted records collect
	// in extractBuf and reach the CEBP stack in one PushBurst, instead of
	// one Push per record.
	inBurst    bool
	extractBuf []fevent.Event

	// Step 4.
	elim   *fpelim.Eliminator
	pacer  *fpelim.Pacer
	sink   EventSink
	outBuf []fevent.Event
	// outTrace is the trace context the next export batch will carry:
	// the context of the last CEBP batch that contributed events to
	// outBuf (last contributor wins — an export batch can straddle CEBP
	// flushes, and a trace that follows *a* real path end-to-end is worth
	// more than none).
	outTrace trace.Context

	// Capacity models.
	mmuRedirect  *tokenBucket
	internalPort *tokenBucket

	stats Stats

	// Self-telemetry. perType/perCode are plain counters (the pipeline is
	// single-owner and the detection paths are pinned zero-alloc hot
	// paths); scrapes read owner-published mirrors (see internal/obs).
	// The latency histogram is atomic — it is observed per batch arrival
	// at the switch CPU, off the pinned paths — so /metrics can read it
	// live.
	perType        [8]uint64  // detection events indexed by fevent.Type
	perCode        [16]uint64 // drop event packets indexed by fevent.DropCode
	latDetectToCPU *obs.Histogram

	// Optional sketch detection stage (Config.Sketch).
	sketch *sketch.Stage
}

// Attach creates a NetSeer instance on sw, delivering surviving events to
// sink, and installs it as the switch's telemetry extension.
func Attach(sw *dataplane.Switch, cfg Config, sink EventSink) *NetSeerSwitch {
	if sink == nil {
		panic("core: sink must not be nil")
	}
	cfg = cfg.withDefaults()
	n := &NetSeerSwitch{
		sw: sw, cfg: cfg, sim: sw.Sim(), sink: sink,
		congThreshold:  sw.Config().CongestionThreshold,
		pathTable:      make([]pathEntry, cfg.PathSlots),
		mmuRedirect:    newTokenBucket(cfg.MMURedirectBps, 256<<10),
		internalPort:   newTokenBucket(cfg.InternalPortBps, 512<<10),
		latDetectToCPU: obs.NewHistogram(obs.LatencyBuckets()),
		extractBuf:     make([]fevent.Event, 0, 256),
	}
	n.dropTable = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.congTable = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.pauseTab = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.aclAgg = groupcache.NewACLAggregator(cfg.GroupC, n.onFlowEvent)
	ports := sw.NumPorts()
	n.nextSeq = make([]uint32, ports)
	n.rings = make([]*ringbuf.Ring, ports)
	n.trackers = make([]*seqtrack.Tracker, ports)
	n.seqOn = make([]bool, ports)
	n.pending = make([][]uint32, ports)
	n.lastGap = make([]seqtrack.Notification, ports)
	n.portCode = make([]fevent.DropCode, ports)
	for i := 0; i < ports; i++ {
		n.rings[i] = ringbuf.New(cfg.RingSlots)
		n.trackers[i] = seqtrack.New()
		n.seqOn[i] = !cfg.DisableSeq
		n.portCode[i] = fevent.DropInterSwitch
	}
	bcfg := cfg.Batch
	bcfg.SwitchID = sw.ID
	if bcfg.InternalPortBps <= 0 {
		bcfg.InternalPortBps = cfg.InternalPortBps
	}
	n.batcher = batcher.New(sw.Sim(), bcfg, n.onBatch)
	n.elim = fpelim.New(cfg.FPElim, sw.Sim().Now)
	n.pacer = fpelim.NewPacer(cfg.ExportBps, 1<<20)
	sw.SetTelemetry(n)
	if cfg.Sketch {
		n.sketch = sketch.NewStage(cfg.SketchCfg, sw.NumPorts(), n.onSketchEvent)
		sw.AttachSketch(n.sketch)
	}
	return n
}

// Deploy attaches NetSeer to every switch of fab in wire-ID order, all
// delivering to sink.
func Deploy(fab *dataplane.Fabric, cfg Config, sink EventSink) []*NetSeerSwitch {
	var nss []*NetSeerSwitch
	fab.EachSwitch(func(sw *dataplane.Switch) { nss = append(nss, Attach(sw, cfg, sink)) })
	return nss
}

// Drain ends a run so every detected event reaches its sink: it flushes
// every switch, stops every switch's CEBP circulation, runs s dry, and
// flushes once more.
func Drain(s *sim.Simulator, nss []*NetSeerSwitch) {
	for _, n := range nss {
		n.Flush()
	}
	for _, n := range nss {
		n.Stop()
	}
	s.RunAll()
	for _, n := range nss {
		n.Flush()
	}
}

// Sketch returns the sketch detection stage, nil unless Config.Sketch was
// set.
func (n *NetSeerSwitch) Sketch() *sketch.Stage { return n.sketch }

// Switch returns the underlying dataplane switch.
func (n *NetSeerSwitch) Switch() *dataplane.Switch { return n.sw }

// Stats returns a copy of the per-step accounting.
func (n *NetSeerSwitch) Stats() Stats {
	s := n.stats
	_, overflow, _, _, _ := n.batcher.Stats()
	s.LostStackOverflow = overflow
	return s
}

// TableStats aggregates the group-caching tables' counters (drop,
// congestion and pause tables; the ACL aggregator never evicts). The
// eviction count tells a reconciler whether per-key packet counters are
// exact: with zero evictions every key lives in one uninterrupted
// aggregation run, so its final reported Count is the exact packet total.
func (n *NetSeerSwitch) TableStats() (ingested, reported, merged, evictions uint64) {
	for _, t := range []*groupcache.Table{n.dropTable, n.congTable, n.pauseTab} {
		i, r, m, e := t.Stats()
		ingested += i
		reported += r
		merged += m
		evictions += e
	}
	return
}

// EventCounts returns detection-event counts indexed by fevent.Type and
// drop event packets indexed by fevent.DropCode. Owner-read only: call
// from the goroutine driving the simulation (see internal/obs).
func (n *NetSeerSwitch) EventCounts() (perType [8]uint64, perCode [16]uint64) {
	return n.perType, n.perCode
}

// DetectToCPULatency is the detection→switch-CPU latency histogram
// (switch clock, microseconds), observed per event as CEBPs arrive. The
// histogram is atomic, so it may be scraped live.
func (n *NetSeerSwitch) DetectToCPULatency() *obs.Histogram { return n.latDetectToCPU }

// TableOccupancy returns live entries across the group caching tables.
func (n *NetSeerSwitch) TableOccupancy() int {
	return n.dropTable.Len() + n.congTable.Len() + n.pauseTab.Len()
}

// Rereports sums the tables' periodic C-crossing re-report counts.
func (n *NetSeerSwitch) Rereports() uint64 {
	return n.dropTable.Rereports() + n.congTable.Rereports() + n.pauseTab.Rereports()
}

// BatchStats exposes the CEBP batcher's counters (see batcher.Stats).
func (n *NetSeerSwitch) BatchStats() (pushed, overflow, batches, delivered, portBytes uint64) {
	return n.batcher.Stats()
}

// BatcherTelemetry reports CEBP circulation pressure: stack transits,
// events popped, and the stack-depth high-water mark.
func (n *NetSeerSwitch) BatcherTelemetry() (passes, pops uint64, stackHW int) {
	passes, pops = n.batcher.PassStats()
	return passes, pops, n.batcher.StackHighWater()
}

// ElimStats exposes the CPU false-positive eliminator's counters.
func (n *NetSeerSwitch) ElimStats() (seen, duplicates, forwarded uint64) {
	return n.elim.Stats()
}

// PacerStats exposes the export pacer's counters.
func (n *NetSeerSwitch) PacerStats() (sent, delayed uint64) { return n.pacer.Stats() }

// MarkInterCard marks a port as a backplane link between the boards of a
// multi-board switch: ring-buffer recoveries on it report DropInterCard
// instead of DropInterSwitch (§3.3: "in multi-board switches, we use a
// similar idea to detect inter-card packet drop").
func (n *NetSeerSwitch) MarkInterCard(port int) { n.portCode[port] = fevent.DropInterCard }

// Flush drains every table, the batcher, and the export path, so final
// counters reach the sink. Drain calls it to end a run.
func (n *NetSeerSwitch) Flush() {
	n.drainPendingLookups()
	n.dropTable.Flush()
	n.congTable.Flush()
	n.pauseTab.Flush()
	n.aclAgg.Flush()
	if n.sketch != nil {
		n.sketch.Flush(n.sim.Now())
	}
	n.batcher.Flush()
	n.exportNow()
}

// Stop halts CEBP circulation so a simulation can drain its queue.
func (n *NetSeerSwitch) Stop() { n.batcher.Stop() }
