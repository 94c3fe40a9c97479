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

	// MMURedirectBps bounds the MMU→internal-port drop redirection
	// (default 40 Gb/s, §4).
	MMURedirectBps float64
	// InternalPortBps bounds ingress-event redirection: pause + pipeline
	// drop + MMU drop share it, and the CEBPs recirculate through it
	// (default 100 Gb/s, §4).
	InternalPortBps float64

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

// WithDefaults returns c with every zero field at its default: the sizes
// Attach deploys.
func (c Config) WithDefaults() Config {
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

// Stats is the one snapshot of everything a switch's NetSeer stages
// count. The Fig. 13 volumes come first: bytes at steps 1–2 are
// packet-sized (the data still travels as packets inside the pipeline);
// step 3 is 24-byte records; step 4 is encoded export batches. Per switch,
// after Drain, the stages conserve events:
//
//	DedupReports   = BatchPushed + LostStackOverflow
//	BatchPushed    = BatchDelivered = ElimSeen
//	ElimSeen       = SuppressedFPs + ElimForwarded
//	ElimForwarded  = ExportedEvents
type Stats struct {
	// RawPackets/RawBytes: all data-plane traffic the switch forwarded or
	// dropped while NetSeer watched.
	RawPackets, RawBytes uint64
	// EventPackets/EventBytes: packets selected by Step 1. EventPackets
	// is the sum of Detections over the four Step-1 types.
	EventPackets, EventBytes uint64
	// DedupReports/DedupBytes: flow events emitted by Step 2.
	DedupReports, DedupBytes uint64
	// ExtractedBytes: Step 3 output (24 B × reports) before batching.
	ExtractedBytes uint64
	// ExportedEvents/ExportedBytes: events and bytes that left the switch
	// CPU for the backend after Step 4. ExportedBatches counts the
	// delivery units handed to the sink (the pacer's sends) — the
	// denominator for the reliable channel's retransmit/duplicate
	// accounting.
	ExportedEvents, ExportedBytes, ExportedBatches uint64
	// SuppressedFPs: duplicate reports removed by the CPU eliminator.
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

	// Detections counts detection events by fevent.Type: Step-1 event
	// packets and sketch-stage events. Drops counts drop event packets
	// by fevent.DropCode.
	Detections [8]uint64
	Drops      [16]uint64

	// Group caching tables (drop, congestion, pause; the ACL aggregator
	// never evicts): offered packets, emitted flow events, merged
	// packets, evictions and periodic C-crossing re-reports. With zero
	// evictions every key lives in one uninterrupted aggregation run, so
	// its final reported Count is the exact packet total.
	GroupIngested, GroupReported, GroupMerged, GroupEvictions, GroupRereports uint64

	// CEBP batcher: events pushed onto the stack, batches flushed to the
	// CPU, events delivered, stack transits, events popped, and the
	// deepest the stack has been (Add keeps the maximum).
	BatchPushed, BatchFlushes, BatchDelivered, BatchPasses, BatchPops, BatchStackHW uint64

	// ElimSeen/ElimForwarded: events offered to and forwarded by the CPU
	// eliminator.
	ElimSeen, ElimForwarded uint64
	// PacerDelayed: export sends that had to wait for the pacer.
	PacerDelayed uint64

	// Sketch is the sketch stage's counters (zero without Config.Sketch).
	Sketch sketch.Stats
}

// Add accumulates o into s field by field — the fabric-wide totals of
// per-switch stats — except BatchStackHW, which keeps the maximum.
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
	for i := range s.Detections {
		s.Detections[i] += o.Detections[i]
	}
	for i := range s.Drops {
		s.Drops[i] += o.Drops[i]
	}
	s.GroupIngested += o.GroupIngested
	s.GroupReported += o.GroupReported
	s.GroupMerged += o.GroupMerged
	s.GroupEvictions += o.GroupEvictions
	s.GroupRereports += o.GroupRereports
	s.BatchPushed += o.BatchPushed
	s.BatchFlushes += o.BatchFlushes
	s.BatchDelivered += o.BatchDelivered
	s.BatchPasses += o.BatchPasses
	s.BatchPops += o.BatchPops
	s.BatchStackHW = max(s.BatchStackHW, o.BatchStackHW)
	s.ElimSeen += o.ElimSeen
	s.ElimForwarded += o.ElimForwarded
	s.PacerDelayed += o.PacerDelayed
	s.Sketch.Pkts += o.Sketch.Pkts
	s.Sketch.HHEvents += o.Sketch.HHEvents
	s.Sketch.Churn += o.Sketch.Churn
	s.Sketch.Snapshots += o.Sketch.Snapshots
	s.Sketch.Spikes += o.Sketch.Spikes
	s.Sketch.SeenEvict += o.Sketch.SeenEvict
	s.Sketch.WindowRolls += o.Sketch.WindowRolls
}

// Sum returns the fabric-wide totals of the switches' Stats.
func Sum(nss []*NetSeerSwitch) Stats {
	var agg Stats
	for _, n := range nss {
		agg.Add(n.Stats())
	}
	return agg
}

// pathExpiry is how long a path-change table entry stays fresh: a flow
// seen again on the same port pair after this long is reported anew.
const pathExpiry = 10 * sim.Millisecond

// pathEntry is one slot of the path-change flow table: the flow's five
// fields beside the port pair and the used flag fill 16 B, the time 8 B
// more (a nested pkt.FlowKey would pad the slot to 32 B).
type pathEntry struct {
	src, dst         uint32
	srcPort, dstPort uint16
	proto, in, out   uint8
	used             bool
	lastSeen         sim.Time
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
	// pathMask is len(pathTable)-1 when PathSlots is a power of two, so
	// the per-packet index is an AND, not a divide; -1 otherwise.
	pathMask int

	// Inter-switch state (per port).
	seq      []seqtrack.Port
	seqOn    bool
	portCode []fevent.DropCode // drop code reported for recoveries per port

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

	// Capacity models, taken strictly (TryTake): work beyond the budget
	// is lost, not delayed — hardware redirection has no queue to wait in.
	mmuRedirect  *fpelim.Pacer
	internalPort *fpelim.Pacer

	// stats holds the counts core keeps itself; Stats() adds the other
	// stages' counters. Plain counters: the pipeline is single-owner and
	// the detection paths are pinned zero-alloc hot paths, so scrapes
	// read an owner-published Stats sum (see internal/obs).
	stats Stats

	// The latency histogram is atomic — it is observed per batch arrival
	// at the switch CPU, off the pinned paths — so /metrics can read it
	// live.
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
	cfg = cfg.WithDefaults()
	n := &NetSeerSwitch{
		sw: sw, cfg: cfg, sim: sw.Sim(), sink: sink,
		congThreshold:  sw.Config().CongestionThreshold,
		pathTable:      make([]pathEntry, cfg.PathSlots),
		pathMask:       -1,
		mmuRedirect:    fpelim.NewPacer(cfg.MMURedirectBps, 256<<10),
		internalPort:   fpelim.NewPacer(cfg.InternalPortBps, 512<<10),
		latDetectToCPU: obs.NewHistogram(obs.LatencyBuckets()),
		extractBuf:     make([]fevent.Event, 0, 256),
	}
	if cfg.PathSlots&(cfg.PathSlots-1) == 0 {
		n.pathMask = cfg.PathSlots - 1
	}
	n.dropTable = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.congTable = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.pauseTab = groupcache.New(cfg.GroupSlots, cfg.GroupC, n.onFlowEvent)
	n.aclAgg = groupcache.NewACLAggregator(cfg.GroupC, n.onFlowEvent)
	ports := sw.NumPorts()
	n.seq = make([]seqtrack.Port, ports)
	n.seqOn = !cfg.DisableSeq
	n.portCode = make([]fevent.DropCode, ports)
	for i := 0; i < ports; i++ {
		n.seq[i] = seqtrack.NewPort(cfg.RingSlots)
		n.portCode[i] = fevent.DropInterSwitch
	}
	n.batcher = batcher.New(sw.Sim(), batcher.Config{SwitchID: sw.ID, InternalPortBps: cfg.InternalPortBps}, n.onBatch)
	n.elim = fpelim.New(fpelim.Config{}, sw.Sim().Now)
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

// Stats returns the switch's accounting: core's own counters plus a read
// of every stage's. O(1): it scans no table or sketch.
func (n *NetSeerSwitch) Stats() Stats {
	s := n.stats
	s.EventPackets = n.eventPackets()
	for _, t := range []*groupcache.Table{n.dropTable, n.congTable, n.pauseTab} {
		i, r, m, e := t.Stats()
		s.GroupIngested += i
		s.GroupReported += r
		s.GroupMerged += m
		s.GroupEvictions += e
		s.GroupRereports += t.Rereports()
	}
	s.BatchPushed, s.LostStackOverflow, s.BatchFlushes, s.BatchDelivered, _ = n.batcher.Stats()
	s.BatchPasses, s.BatchPops = n.batcher.PassStats()
	s.BatchStackHW = uint64(n.batcher.StackHighWater())
	s.ElimSeen, s.SuppressedFPs, s.ElimForwarded = n.elim.Stats()
	s.ExportedBatches, s.PacerDelayed = n.pacer.Stats()
	if n.sketch != nil {
		s.Sketch = n.sketch.Stats()
	}
	return s
}

// Occupancy scans the fixed structures: live group-cache entries, and the
// sketch stage's non-zero count-min cells and resident top-K entries
// (zero without Config.Sketch). O(slots) over the tables an event has
// reached, so read it at publish points, never per packet.
func (n *NetSeerSwitch) Occupancy() (groupEntries, cmsCells, topkEntries int) {
	groupEntries = n.dropTable.Len() + n.congTable.Len() + n.pauseTab.Len()
	if n.sketch != nil {
		cmsCells, topkEntries = n.sketch.Occupancy()
	}
	return groupEntries, cmsCells, topkEntries
}

// TableStats aggregates the group-caching tables' counters (see
// Stats.GroupIngested).
func (n *NetSeerSwitch) TableStats() (ingested, reported, merged, evictions uint64) {
	s := n.Stats()
	return s.GroupIngested, s.GroupReported, s.GroupMerged, s.GroupEvictions
}

// DetectToCPULatency is the detection→switch-CPU latency histogram
// (switch clock, microseconds), observed per event as CEBPs arrive. The
// histogram is atomic, so it may be scraped live.
func (n *NetSeerSwitch) DetectToCPULatency() *obs.Histogram { return n.latDetectToCPU }

// BatchStats exposes the CEBP batcher's counters (see batcher.Stats).
func (n *NetSeerSwitch) BatchStats() (pushed, overflow, batches, delivered, portBytes uint64) {
	return n.batcher.Stats()
}

// ElimStats exposes the CPU false-positive eliminator's counters.
func (n *NetSeerSwitch) ElimStats() (seen, duplicates, forwarded uint64) {
	return n.elim.Stats()
}

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
