package sketch

import (
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// ReportFunc receives every sketch-detected flow event. The *fevent.Event
// is only valid for the duration of the call; implementations must copy
// it if they retain it (the same contract as groupcache.ReportFunc).
type ReportFunc func(e *fevent.Event)

// Config parameterizes the sketch stage. Zero fields take defaults.
type Config struct {
	// CMSWidth/CMSDepth size the count-min sketch (defaults 2048×4:
	// ε = e/2048 ≈ 0.0013, δ = e⁻⁴ ≈ 0.018, 32 KiB of counters).
	CMSWidth, CMSDepth int
	// TopK is the space-saving table size (default 32).
	TopK int
	// HHThresholdPkts is the heavy-hitter onset threshold on the count-min
	// estimate, in packets (default 64).
	HHThresholdPkts uint32
	// ChurnMin suppresses top-K churn events whose entering counter is
	// below it (default 8): early table fill is churn-by-construction, not
	// signal. The Flush snapshot ignores it.
	ChurnMin uint64
	// Window is the aggregate-spike accounting window (default 250 µs).
	Window sim.Time
	// SpikeBytes is the per-(egress port, window) byte threshold for an
	// aggregate-spike event (default 64 KiB).
	SpikeBytes uint64
}

// hhSeenSlots sizes the direct-indexed seen-filter that keeps a
// heavy-hitter from re-reporting on every packet past the threshold. It
// copes like a groupcache table: collisions evict, the evictee
// re-reports, and the CPU eliminator absorbs the duplicate.
const hhSeenSlots = 1024

func (c Config) withDefaults() Config {
	if c.CMSWidth <= 0 {
		c.CMSWidth = 2048
	}
	if c.CMSDepth <= 0 {
		c.CMSDepth = 4
	}
	if c.TopK <= 0 {
		c.TopK = 32
	}
	if c.HHThresholdPkts == 0 {
		c.HHThresholdPkts = 64
	}
	if c.ChurnMin == 0 {
		c.ChurnMin = 8
	}
	if c.Window <= 0 {
		c.Window = 250 * sim.Microsecond
	}
	if c.SpikeBytes == 0 {
		c.SpikeBytes = 64 << 10
	}
	return c
}

// Stats counts the stage's work. Plain counters, single-owner like every
// pipeline stage; scrapes read the owner-published core.Stats sum.
type Stats struct {
	Pkts        uint64 // packets observed
	HHEvents    uint64 // heavy-hitter onset events emitted
	Churn       uint64 // top-K churn events emitted per-packet
	Snapshots   uint64 // top-K resident events emitted by Flush
	Spikes      uint64 // aggregate-spike events emitted
	SeenEvict   uint64 // heavy-hitter seen-filter collisions
	WindowRolls uint64 // aggregate windows closed and reset
}

// hhSeen is one slot of the heavy-hitter seen-filter: a direct-indexed
// exact-match table (same discipline as a groupcache table) remembering
// which flows already reported their onset.
type hhSeen struct {
	used bool
	hash uint32
	flow pkt.FlowKey
}

// Stage is the per-switch sketch detection stage. It implements
// dataplane.SketchStage. Not safe for concurrent use: it belongs to one
// switch pipeline, like every other stage.
type Stage struct {
	cfg  Config
	cms  *CMS
	topk *TopK

	seen [hhSeenSlots]hhSeen

	// Per-egress-port byte accumulators for the current window, plus the
	// per-port byte level already emitted for it — Flush can then re-emit
	// only when the level advanced, keeping repeated flushes (the
	// simulator's drain loop) idempotent.
	portBytes []uint64
	emitted   []uint64
	curWin    uint64
	haveWin   bool

	report  ReportFunc
	scratch fevent.Event
	// zeroHash is the pre-computed CRC-32C of the zero flow key, carried
	// by aggregate-spike records (which have no subject flow).
	zeroHash uint32

	stats Stats
}

// NewStage builds a sketch stage for a switch with the given number of
// egress ports, delivering events to report. Panics if report is nil or
// ports <= 0: a silently dropped event would void the oracle's
// completeness claims.
func NewStage(cfg Config, ports int, report ReportFunc) *Stage {
	if report == nil {
		panic("sketch: report must not be nil")
	}
	if ports <= 0 {
		panic("sketch: ports must be positive")
	}
	cfg = cfg.withDefaults()
	return &Stage{
		cfg:       cfg,
		cms:       NewCMS(cfg.CMSWidth, cfg.CMSDepth, true),
		topk:      NewTopK(cfg.TopK),
		portBytes: make([]uint64, ports),
		emitted:   make([]uint64, ports),
		report:    report,
		zeroHash:  pkt.FlowKey{}.Hash(),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Stage) Config() Config { return s.cfg }

// Stats returns a copy of the stage counters.
func (s *Stage) Stats() Stats { return s.stats }

// Occupancy reports how full the fixed structures are: non-zero
// count-min cells and resident space-saving entries. O(width·depth), so
// read at publish points (core.NetSeerSwitch.Occupancy), never per packet.
func (s *Stage) Occupancy() (cmsCells, topkEntries int) {
	return s.cms.Occupancy(), s.topk.Len()
}

// CMSEstimate exposes the current count-min estimate for a flow hash
// (tests and the oracle read it; the pipeline never does).
func (s *Stage) CMSEstimate(h uint32) uint32 { return s.cms.Estimate(h) }

// TopKTable exposes the space-saving table (tests and the oracle).
func (s *Stage) TopKTable() *TopK { return s.topk }

// clamp16 saturates a counter into the 16-bit wire field.
func clamp16(v uint64) uint16 {
	if v > 0xffff {
		return 0xffff
	}
	return uint16(v)
}

// window maps a timestamp to its window index.
func (s *Stage) window(now sim.Time) uint64 {
	return uint64(now) / uint64(s.cfg.Window)
}

// rollWindow finalizes the current aggregate window if now belongs to a
// later one: emit any pending spikes, then reset the accumulators.
func (s *Stage) rollWindow(now sim.Time) {
	w := s.window(now)
	if !s.haveWin {
		s.curWin, s.haveWin = w, true
		return
	}
	if w == s.curWin {
		return
	}
	s.emitSpikes()
	for i := range s.portBytes {
		s.portBytes[i] = 0
		s.emitted[i] = 0
	}
	s.curWin = w
	s.stats.WindowRolls++
}

// emitSpikes reports every egress port whose current-window byte total
// meets the spike threshold and advanced past the level already emitted
// for this window (so repeated flushes of a quiescent stage emit
// nothing).
func (s *Stage) emitSpikes() {
	for port, b := range s.portBytes {
		if b < s.cfg.SpikeBytes || b <= s.emitted[port] {
			continue
		}
		s.emitted[port] = b
		s.scratch = fevent.Event{
			Type:       fevent.TypeAggSpike,
			EgressPort: uint8(port),
			Window:     uint16(s.curWin),
			Count:      clamp16((b + 1023) >> 10), // KiB, rounded up
			Hash:       s.zeroHash,
		}
		s.stats.Spikes++
		s.report(&s.scratch)
	}
}

// Offer implements dataplane.SketchStage: observe one forwarded packet
// (window rollover, count-min/heavy-hitter, space-saving/churn). in is
// the ingress port, out the chosen egress port.
func (s *Stage) Offer(p *pkt.Packet, in, out int32, now sim.Time) {
	s.rollWindow(now)
	s.stats.Pkts++
	s.portBytes[out] += uint64(p.WireLen)
	h := p.FlowHash()

	est := s.cms.Update(h)
	if est >= s.cfg.HHThresholdPkts {
		slot := &s.seen[h&(hhSeenSlots-1)]
		if !slot.used || slot.hash != h || slot.flow != p.Flow {
			if slot.used {
				s.stats.SeenEvict++
			}
			slot.used, slot.hash, slot.flow = true, h, p.Flow
			s.scratch = fevent.Event{
				Type:        fevent.TypeHeavyHitter,
				Flow:        p.Flow,
				IngressPort: uint8(in),
				EgressPort:  uint8(out),
				Count:       clamp16(uint64(est)),
				Hash:        h,
			}
			s.stats.HHEvents++
			s.report(&s.scratch)
		}
	}

	count, errBound, evicted := s.topk.Offer(p.Flow, h)
	if evicted && count >= s.cfg.ChurnMin {
		s.scratch = fevent.Event{
			Type:       fevent.TypeTopKChurn,
			Flow:       p.Flow,
			EgressPort: uint8(out),
			Count:      clamp16(count),
			SketchErr:  clamp16(errBound),
			Hash:       h,
		}
		s.stats.Churn++
		s.report(&s.scratch)
	}
}

// Flush emits everything the stage is still holding: pending
// aggregate-spike windows and a snapshot of every space-saving resident
// (as top-K churn events carrying the final counters — this is what makes
// the oracle's top-K completeness claim deterministic: any flow with true
// count > N/K is resident at the end, so it is always reported).
// Idempotent: a second Flush with no traffic in between emits nothing new
// except the (duplicate-suppressed) snapshot.
func (s *Stage) Flush(now sim.Time) {
	s.rollWindow(now)
	s.emitSpikes()
	for i := 0; i < s.topk.Len(); i++ {
		flow, count, errBound := s.topk.Entry(i)
		s.scratch = fevent.Event{
			Type:      fevent.TypeTopKChurn,
			Flow:      flow,
			Count:     clamp16(count),
			SketchErr: clamp16(errBound),
			Hash:      flow.Hash(),
		}
		s.stats.Snapshots++
		s.report(&s.scratch)
	}
}

// MemoryBytes totals the stage's SRAM footprint (sketch + table + filter
// + window accumulators), for the DESIGN.md §13 budget table.
func (s *Stage) MemoryBytes() int {
	perSeen := 1 + 4 + pkt.FlowKeyLen
	return s.cms.MemoryBytes() + s.topk.MemoryBytes() +
		len(s.seen)*perSeen + len(s.portBytes)*16
}
