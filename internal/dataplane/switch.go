// Package dataplane models a programmable switch at the fidelity NetSeer
// needs: a parse/ACL/route/TTL ingress pipeline with per-reason drops, an
// MMU with a shared buffer and per-port/queue tail drop, strict-priority
// egress queues with PFC, per-port counters (the SNMP surface), fault
// injection (parity bit flips, down ports, route blackholes), an
// omniscient ground-truth ledger, and the hook surfaces NetSeer and the
// baseline monitors attach to.
package dataplane

import (
	"fmt"
	"math/bits"
	"slices"

	"netseer/internal/fevent"
	"netseer/internal/fifo"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// nQueues is the egress queue count of every port: one queue per 3-bit
// priority, as PFC has one class per priority.
const nQueues = 8

// pipelineLatency is the fixed ingress+egress processing time of every
// switch. The pipeline forwards frames up to pkt.MaxEthernetFrame; a
// larger one is an MTU drop.
const pipelineLatency = 600 * sim.Nanosecond

// Config parameterizes a Switch. Zero fields take defaults.
type Config struct {
	// MMUBytes is the shared packet buffer (default 12 MB, in the range of
	// a Tofino-class MMU).
	MMUBytes int
	// QueueLimitBytes is the per-queue tail-drop threshold (default
	// 512 KB).
	QueueLimitBytes int
	// CongestionThreshold is the queuing delay above which a packet is,
	// by definition, congested (ground truth and NetSeer use the same
	// threshold; default 10 µs).
	CongestionThreshold sim.Time
	// LosslessMask marks priorities subject to PFC (bit i = priority i).
	LosslessMask uint8
	// PFCXoffBytes / PFCXonBytes are the pause and resume thresholds for
	// lossless queues (defaults 256 KB / 128 KB).
	PFCXoffBytes int
	PFCXonBytes  int
}

func (c Config) withDefaults() Config {
	if c.MMUBytes <= 0 {
		c.MMUBytes = 12 << 20
	}
	if c.QueueLimitBytes <= 0 {
		c.QueueLimitBytes = 512 << 10
	}
	if c.CongestionThreshold <= 0 {
		c.CongestionThreshold = 10 * sim.Microsecond
	}
	if c.PFCXoffBytes <= 0 {
		c.PFCXoffBytes = 256 << 10
	}
	if c.PFCXonBytes <= 0 {
		c.PFCXonBytes = 128 << 10
	}
	return c
}

// RouteFunc returns the equal-cost egress ports toward dstIP (nil = no
// route).
type RouteFunc func(dstIP uint32) []int

// PortCounters is the SNMP-visible per-port counter set.
type PortCounters struct {
	RxPackets, RxBytes uint64
	TxPackets, TxBytes uint64
	// Drops counts drops attributed to this port that ordinary counters
	// can see (congestion and most pipeline drops; parity-error silent
	// drops are excluded by definition).
	Drops uint64
	// CorruptRx counts frames the MAC discarded (FCS errors): visible.
	CorruptRx uint64
}

type queuedPkt struct {
	p   *pkt.Packet
	enq sim.Time
}

// swPort keeps the fields every packet reads (pipeline checks, kick,
// transmit) first, so a hop touches the port's first cache lines; the
// per-queue arrays follow.
type swPort struct {
	num   int
	lnk   *link.Link
	fromA bool // which side of lnk this port transmits from
	down  bool
	// ready has bit q set iff queue q is non-empty; paused has bit q set
	// while the peer's PFC pauses priority q. The next queue to serve is
	// the highest bit of ready &^ paused.
	ready, paused uint8
	bps           float64

	// The packet being serialized: busy allows one per port, so it lives
	// here and txDone, bound once in AddPort, is the only closure the
	// port ever schedules for it.
	busy     bool
	tx       queuedPkt
	txQueue  int
	txQDelay sim.Time
	txDone   func()

	ctr PortCounters

	queues [nQueues]fifo.Queue[queuedPkt]
	qBytes [nQueues]int
	// pauseEnd is, per priority, when the latest pause frame's quanta run
	// out: a pause timer resumes the queue only if no later pause frame
	// has moved this on.
	pauseEnd [nQueues]sim.Time
	xoffOut  [nQueues]bool // we have paused the peer (per priority)

	// pausedSources records upstream ports we paused per priority so
	// resumes reach them. Keyed by priority → set of ingress port numbers.
	pausedUpstream [nQueues]map[int]struct{}
}

// Switch is one simulated programmable switch.
type Switch struct {
	ID   uint16
	Name string

	sim *sim.Simulator
	cfg Config
	gt  *GroundTruth

	ports    []*swPort
	routes   RouteFunc
	salt     uint32
	acl      ACLTable
	mmuUsed  int
	tel      Telemetry
	telBurst BurstTelemetry // tel's optional burst interface, cached
	sketch   SketchStage    // optional sketch detection stage
	monitors []Monitor

	// The fronts not yet run, open[openLo:], sorted by arrival instant: the
	// data frames of one arrival instant, behind one pipeline event. Fronts
	// run oldest first, so a run front leaves from the low end.
	open      []*inBurst
	openLo    int
	burstFree []*inBurst

	// pool takes back the packets the switch drops (nil outside a fabric).
	pool *pkt.Pool

	// Fault injection.
	parityVictims map[uint32]bool // dstIPs whose route entry suffered a bit flip
	routeOverride map[uint32][]int
	asicFailed    bool
	mmuFailed     bool
	// syslog receives self-check alerts (ASIC/MMU failures): the §3.7
	// precondition — NetSeer cannot cover malfunctioning hardware, the
	// switch's own detectors must alert.
	syslog func(SyslogAlert)

	// Totals.
	dropsByCode map[fevent.DropCode]uint64
	forwarded   uint64
}

// NewSwitch creates a switch with no ports; attach ports with AddPort.
func NewSwitch(s *sim.Simulator, id uint16, name string, cfg Config, routes RouteFunc, gt *GroundTruth) *Switch {
	if routes == nil {
		panic("dataplane: routes must not be nil")
	}
	return &Switch{
		ID: id, Name: name, sim: s, cfg: cfg.withDefaults(),
		routes: routes, salt: uint32(id), gt: gt,
		parityVictims: make(map[uint32]bool),
		routeOverride: make(map[uint32][]int),
		dropsByCode:   make(map[fevent.DropCode]uint64),
	}
}

// AddPort attaches the next port number to a link side and returns the
// port number. bps is the transmit line rate.
func (sw *Switch) AddPort(l *link.Link, fromA bool, bps float64) int {
	n := len(sw.ports)
	p := &swPort{num: n, lnk: l, fromA: fromA, bps: bps}
	for i := range p.pausedUpstream {
		p.pausedUpstream[i] = make(map[int]struct{})
	}
	p.txDone = func() {
		item := p.tx
		p.tx, p.busy = queuedPkt{}, false
		sw.transmit(p, item, p.txQueue, p.txQDelay)
		sw.kick(n)
	}
	sw.ports = append(sw.ports, p)
	return n
}

// SetTelemetry installs the (single) telemetry extension.
func (sw *Switch) SetTelemetry(t Telemetry) {
	sw.tel = t
	sw.telBurst, _ = t.(BurstTelemetry)
}

// AttachSketch installs the (single, optional) sketch detection stage; nil
// detaches it.
func (sw *Switch) AttachSketch(s SketchStage) { sw.sketch = s }

// AddMonitor attaches a passive monitor.
func (sw *Switch) AddMonitor(m Monitor) { sw.monitors = append(sw.monitors, m) }

// ACL exposes the switch's ACL table.
func (sw *Switch) ACL() *ACLTable { return &sw.acl }

// Sim returns the simulator the switch runs on.
func (sw *Switch) Sim() *sim.Simulator { return sw.sim }

// Config returns the effective configuration.
func (sw *Switch) Config() Config { return sw.cfg }

// NumPorts returns the port count.
func (sw *Switch) NumPorts() int { return len(sw.ports) }

// Counters returns a copy of the port's counters.
func (sw *Switch) Counters(port int) PortCounters { return sw.ports[port].ctr }

// DropsByCode returns a copy of the per-reason drop totals.
func (sw *Switch) DropsByCode() map[fevent.DropCode]uint64 {
	out := make(map[fevent.DropCode]uint64, len(sw.dropsByCode))
	for k, v := range sw.dropsByCode {
		out[k] = v
	}
	return out
}

// Forwarded returns the count of packets enqueued toward an egress port.
func (sw *Switch) Forwarded() uint64 { return sw.forwarded }

// SyslogAlert is a switch self-check alert.
type SyslogAlert struct {
	At       sim.Time
	SwitchID uint16
	Message  string
}

// OnSyslog registers the syslog alert receiver.
func (sw *Switch) OnSyslog(fn func(SyslogAlert)) { sw.syslog = fn }

// InjectASICFailure puts the forwarding ASIC into a failed state: every
// packet is dropped with DropASICFailure, NetSeer's pipeline hooks see
// nothing (the pipeline itself is broken), and the self-check raises a
// syslog alert (Fig. 4's "malfunctioning" rows).
func (sw *Switch) InjectASICFailure() {
	sw.asicFailed = true
	if sw.syslog != nil {
		sw.syslog(SyslogAlert{At: sw.sim.Now(), SwitchID: sw.ID, Message: "ASIC self-check failed"})
	}
}

// InjectMMUFailure breaks the MMU: packets can no longer be enqueued.
// Detected through active probing in production; the self-check alert
// models the switch's own detection.
func (sw *Switch) InjectMMUFailure() {
	sw.mmuFailed = true
	if sw.syslog != nil {
		sw.syslog(SyslogAlert{At: sw.sim.Now(), SwitchID: sw.ID, Message: "MMU self-check failed"})
	}
}

// RepairHardware clears injected hardware failures.
func (sw *Switch) RepairHardware() { sw.asicFailed, sw.mmuFailed = false, false }

// InjectParityError flips the routing entry for dstIP: packets toward it
// are silently dropped (table lookup miss), invisible to port counters —
// the paper's case #3.
func (sw *Switch) InjectParityError(dstIP uint32) { sw.parityVictims[dstIP] = true }

// ClearParityError repairs the entry.
func (sw *Switch) ClearParityError(dstIP uint32) { delete(sw.parityVictims, dstIP) }

// SetRouteOverride forces dstIP to the given egress ports (the paper's
// case #1: a faulty update installing a wrong route). An empty (non-nil)
// slice blackholes the destination.
func (sw *Switch) SetRouteOverride(dstIP uint32, ports []int) {
	sw.routeOverride[dstIP] = ports
}

// ClearRouteOverride removes an override.
func (sw *Switch) ClearRouteOverride(dstIP uint32) { delete(sw.routeOverride, dstIP) }

// SetPortDown marks a port administratively down.
func (sw *Switch) SetPortDown(port int, down bool) { sw.ports[port].down = down }

// QueueBytes returns the occupancy of an egress queue.
func (sw *Switch) QueueBytes(port, queue int) int { return sw.ports[port].qBytes[queue] }

// MMUUsed returns the shared-buffer occupancy.
func (sw *Switch) MMUUsed() int { return sw.mmuUsed }

// Receive implements link.Device: a frame arrives from the wire. Data
// frames normally come through Admit at send time; one delivered here is
// admitted with the current instant as its arrival.
func (sw *Switch) Receive(p *pkt.Packet, port int) {
	pt := sw.ports[port]
	if p.Corrupt {
		// The MAC drops damaged frames before the pipeline sees them.
		pt.ctr.CorruptRx++
		if sw.tel != nil {
			sw.tel.OnCorruptFrame(port)
		}
		// Ground truth was recorded by the link's loss hook at damage
		// time, attributed to the upstream transmitter.
		return
	}
	switch p.Kind {
	case pkt.KindPFC:
		sw.countRx(pt, p)
		sw.handlePFC(p, port)
		return
	case pkt.KindLossNotify:
		sw.countRx(pt, p)
		if sw.tel != nil {
			sw.tel.HandleLossNotify(p, port)
		}
		return
	}
	sw.Admit(p, port, sw.sim.Now())
}

func (sw *Switch) countRx(pt *swPort, p *pkt.Packet) {
	pt.ctr.RxPackets++
	pt.ctr.RxBytes += uint64(p.WireLen)
}

// Admit implements link.Admitter: it queues a data frame that arrives on
// port at instant at for the pipeline. The frames of one arrival instant
// form one front with one pipeline event, at + pipelineLatency, which runs
// their arrival work in admission order and then the pipeline.
func (sw *Switch) Admit(p *pkt.Packet, port int, at sim.Time) {
	f := sw.frontAt(at)
	f.slots = append(f.slots, arrival{p: p, port: port})
}

// frontAt returns the open front of arrival instant at, opening one if
// there is none. Links with different propagation delays admit frames out
// of arrival order, so the open fronts are kept sorted by instant; with
// equal delays a new front always goes at the end.
func (sw *Switch) frontAt(at sim.Time) *inBurst {
	i := len(sw.open)
	for ; i > sw.openLo && sw.open[i-1].at >= at; i-- {
		if f := sw.open[i-1]; f.at == at {
			return f
		}
	}
	f := sw.grabBurst()
	f.at = at
	sw.open = slices.Insert(sw.open, i, f)
	sw.sim.At(at+pipelineLatency, f.fn)
	return f
}

// inBurst accumulates the data frames of one arrival instant behind one
// scheduled pipeline event. Instances recycle through Switch.burstFree,
// each keeping its pre-bound closure, so ingress does not allocate in
// steady state.
type inBurst struct {
	at    sim.Time
	slots []arrival
	fn    func()
}

// arrival is one packet of a burst with its ingress port.
type arrival struct {
	p    *pkt.Packet
	port int
}

// closeOldestFront drops the front about to run, the oldest open one, from
// the open list. The list is compacted once half of it is run fronts, so a
// front costs one pointer move on average rather than a shift of the list.
func (sw *Switch) closeOldestFront() {
	sw.open[sw.openLo] = nil
	if sw.openLo++; 2*sw.openLo >= len(sw.open) {
		n := copy(sw.open, sw.open[sw.openLo:])
		clear(sw.open[n:])
		sw.open, sw.openLo = sw.open[:n], 0
	}
}

func (sw *Switch) grabBurst() *inBurst {
	if n := len(sw.burstFree); n > 0 {
		b := sw.burstFree[n-1]
		sw.burstFree = sw.burstFree[:n-1]
		return b
	}
	b := &inBurst{}
	b.fn = func() { sw.pipelineBurst(b) }
	return b
}

func (sw *Switch) releaseBurst(b *inBurst) {
	b.slots = b.slots[:0]
	sw.burstFree = append(sw.burstFree, b)
}

// pipelineBurst runs one front: the arrival work of each frame — RX
// counters, NetSeer's tag strip and gap check, the monitors' ingress hook —
// in admission order, then the ingress pipeline one packet at a time.
func (sw *Switch) pipelineBurst(b *inBurst) {
	sw.closeOldestFront()
	for _, s := range b.slots {
		sw.countRx(sw.ports[s.port], s.p)
		if sw.tel != nil {
			sw.tel.IngressData(s.p, s.port)
		}
		for _, m := range sw.monitors {
			m.OnIngress(sw, s.p, s.port)
		}
	}
	now := sw.sim.Now()
	// A failed ASIC destroys packets before any match-action logic runs:
	// even NetSeer's own detection is gone (§3.7 precondition). Ground
	// truth still records the loss; only syslog can tell the operator.
	if sw.asicFailed {
		for _, s := range b.slots {
			sw.dropsByCode[fevent.DropASICFailure]++
			sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypeDrop, Flow: s.p.Flow, Code: fevent.DropASICFailure}, now, 0, false)
			sw.pool.Put(s.p)
		}
		sw.releaseBurst(b)
		return
	}
	// Canonical order: stable insertion sort by ingress port. The
	// admission order of same-instant arrivals is the event scheduler's
	// tie-break order, an accident of which upstream device happened to
	// send first; a port is one link direction with FIFO delivery, so
	// (port, per-port arrival order) depends on the traffic alone and the
	// pipeline outcome stays the same under any scheduler that keeps each
	// link in order. The golden digests pin this order.
	in := b.slots
	for i := 1; i < len(in); i++ {
		s := in[i]
		j := i
		for j > 0 && in[j-1].port > s.port {
			in[j] = in[j-1]
			j--
		}
		in[j] = s
	}
	if sw.telBurst != nil {
		sw.telBurst.BeginBurst(len(in))
	}
	for _, s := range in {
		sw.pipeline(s.p, s.port, now)
	}
	sw.releaseBurst(b)
	if sw.telBurst != nil {
		sw.telBurst.EndBurst()
	}
}

// pipeline is the ingress match-action sequence for one packet:
// parse/stamp → ACL → route/TTL/ECMP → port checks → sketch → forward
// telemetry → MMU admission, each drop finalized where it is decided.
func (sw *Switch) pipeline(p *pkt.Packet, port int, now sim.Time) {
	p.IngressAt = now
	p.IngressPort = port
	if rule := sw.acl.Lookup(p.Flow); rule != nil && rule.Action == ACLDeny {
		sw.drop(p, port, fevent.DropACLDeny, rule.ID)
		return
	}
	// Both maps are fault injection: empty on a healthy switch, where the
	// length checks save two hash probes a packet. A parity bit flip makes
	// the entry unmatchable: the lookup misses and the drop is silent.
	if len(sw.parityVictims) != 0 && sw.parityVictims[p.Flow.DstIP] {
		sw.drop(p, port, fevent.DropParityError, 0)
		return
	}
	var hops []int
	overridden := false
	if len(sw.routeOverride) != 0 {
		hops, overridden = sw.routeOverride[p.Flow.DstIP]
	}
	if !overridden {
		hops = sw.routes(p.Flow.DstIP)
	}
	if len(hops) == 0 {
		sw.drop(p, port, fevent.DropNoRoute, 0)
		return
	}
	if p.TTL <= 1 {
		sw.drop(p, port, fevent.DropTTLExpired, 0)
		return
	}
	p.TTL--
	// A single candidate, as on every fat-tree down-path hop, needs no
	// hash.
	egress := hops[0]
	if len(hops) > 1 {
		egress, _ = topo.ECMPSelect(hops, p.FlowHash(), sw.salt)
	}
	pt := sw.ports[egress]
	if pt.down || pt.lnk.Down() {
		sw.drop(p, port, fevent.DropPortDown, 0)
		return
	}
	if p.WireLen > pkt.MaxEthernetFrame {
		sw.drop(p, port, fevent.DropMTUExceeded, 0)
		return
	}
	queue := int(p.Priority & (nQueues - 1))
	if sw.sketch != nil {
		sw.sketch.Offer(p, int32(port), int32(egress), now)
	}
	paused := pt.paused&(1<<queue) != 0
	if sw.tel != nil {
		sw.tel.PipelineForward(p, port, egress, queue, paused)
	}
	sw.gt.recordForward(now, sw.ID, p, port, egress)
	if paused {
		sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypePause, Flow: p.Flow}, now, uint8(egress), false)
	}
	sw.enqueue(p, port, egress, queue)
}

// enqueue admits the packet to the MMU or drops it on congestion.
func (sw *Switch) enqueue(p *pkt.Packet, inPort, egress, queue int) {
	pt := sw.ports[egress]
	if sw.mmuFailed {
		// Broken MMU: nothing can be buffered; the drop bypasses the
		// (equally broken) redirect path, so NetSeer sees nothing.
		sw.dropsByCode[fevent.DropMMUFailure]++
		sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypeDrop, Flow: p.Flow, Code: fevent.DropMMUFailure}, sw.sim.Now(), 0, false)
		sw.pool.Put(p)
		return
	}
	if sw.mmuUsed+p.WireLen > sw.cfg.MMUBytes || pt.qBytes[queue]+p.WireLen > sw.cfg.QueueLimitBytes {
		sw.dropsByCode[fevent.DropMMUCongestion]++
		pt.ctr.Drops++
		sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypeDrop, Flow: p.Flow, Code: fevent.DropMMUCongestion}, sw.sim.Now(), 0, false)
		if sw.tel != nil {
			sw.tel.OnMMUDrop(p, inPort, egress, queue)
		}
		for _, m := range sw.monitors {
			m.OnDrop(sw, p, fevent.DropMMUCongestion, true)
		}
		sw.pool.Put(p)
		return
	}
	sw.forwarded++
	sw.mmuUsed += p.WireLen
	pt.qBytes[queue] += p.WireLen
	p.EnqueuedAt = sw.sim.Now()
	pt.queues[queue].Push(queuedPkt{p: p, enq: p.EnqueuedAt})
	pt.ready |= 1 << queue
	// PFC generation: lossless queue crossing Xoff pauses the packet's
	// upstream ingress port.
	if sw.losslessQueue(queue) && pt.qBytes[queue] >= sw.cfg.PFCXoffBytes {
		sw.sendPause(inPort, egress, queue)
	}
	sw.kick(egress)
}

// drop finalizes a pipeline drop; rule is the ACL rule for ACL denies.
// Ordinary counters register every drop but a parity error's.
func (sw *Switch) drop(p *pkt.Packet, inPort int, code fevent.DropCode, rule uint8) {
	visible := code != fevent.DropParityError
	sw.dropsByCode[code]++
	if visible {
		sw.ports[inPort].ctr.Drops++
	}
	sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypeDrop, Flow: p.Flow, Code: code}, sw.sim.Now(), 0, false)
	if code == fevent.DropACLDeny {
		sw.gt.deny(sw.ID, rule)
	}
	if sw.tel != nil {
		sw.tel.OnPipelineDrop(p, inPort, code, int(rule))
	}
	for _, m := range sw.monitors {
		m.OnDrop(sw, p, code, visible)
	}
	sw.pool.Put(p)
}

func (sw *Switch) losslessQueue(q int) bool {
	return sw.cfg.LosslessMask&(1<<uint(q)) != 0
}

// kick starts the port transmitting if idle and work is available.
func (sw *Switch) kick(port int) {
	pt := sw.ports[port]
	if pt.busy {
		return
	}
	q := pickQueue(pt)
	if q < 0 {
		return
	}
	pt.tx, pt.txQueue, pt.busy = pt.queues[q].Pop(), q, true
	if pt.queues[q].Len() == 0 {
		pt.ready &^= 1 << q
	}
	pt.txQDelay = sw.sim.Now() - pt.tx.enq
	ser := sim.Time(float64(pt.tx.p.WireLen*8) / pt.bps * 1e9)
	sw.sim.Schedule(ser, pt.txDone)
}

// pickQueue selects the highest-numbered non-empty, non-paused queue
// (strict priority, 7 high), or -1 if there is none.
func pickQueue(pt *swPort) int {
	return bits.Len8(pt.ready&^pt.paused) - 1
}

// transmit finishes serialization: egress accounting, telemetry, PFC
// resume, and handing the frame to the link.
func (sw *Switch) transmit(pt *swPort, item queuedPkt, queue int, qdelay sim.Time) {
	p := item.p
	sw.mmuUsed -= p.WireLen
	pt.qBytes[queue] -= p.WireLen
	if sw.losslessQueue(queue) && pt.xoffOut[queue] && pt.qBytes[queue] <= sw.cfg.PFCXonBytes {
		sw.sendResume(pt.num, queue)
	}
	if qdelay >= sw.cfg.CongestionThreshold && p.Kind == pkt.KindData {
		sw.gt.note(FlowEventKey{SwitchID: sw.ID, Type: fevent.TypeCongestion, Flow: p.Flow}, sw.sim.Now(), uint8(pt.num), false)
	}
	if sw.tel != nil {
		sw.tel.OnDequeue(p, pt.num, queue, qdelay)
	}
	for _, m := range sw.monitors {
		m.OnDequeue(sw, p, pt.num, queue, qdelay)
	}
	if sw.tel != nil {
		sw.tel.EgressData(p, pt.num)
	}
	for _, m := range sw.monitors {
		m.OnEgress(sw, p, pt.num)
	}
	pt.ctr.TxPackets++
	pt.ctr.TxBytes += uint64(p.WireLen)
	pt.lnk.Send(pt.fromA, p)
}

// SendFromPort injects a control packet (loss notification, PFC, report)
// directly out of a port, bypassing the MMU — these travel on the
// dedicated high-priority path. Serialization is still accounted via wire
// length, but for simplicity control frames do not contend with the data
// queues.
func (sw *Switch) SendFromPort(port int, p *pkt.Packet) {
	pt := sw.ports[port]
	pt.ctr.TxPackets++
	pt.ctr.TxBytes += uint64(p.WireLen)
	pt.lnk.Send(pt.fromA, p)
}

// handlePFC processes a PFC frame arriving on port: it pauses/resumes this
// switch's egress queues on that port.
func (sw *Switch) handlePFC(p *pkt.Packet, port int) {
	f := p.PFC
	if f == nil {
		return
	}
	pt := sw.ports[port]
	for prio := uint8(0); prio < nQueues; prio++ {
		bit := uint8(1) << prio
		switch {
		case f.IsPause(prio):
			pt.paused |= bit
			// Quanta-based auto-resume, unless a later pause frame has
			// extended the pause by then.
			d := sim.Time(float64(f.PauseTime[prio]) * pkt.PFCQuantumNs)
			end := sw.sim.Now() + d
			pt.pauseEnd[prio] = end
			prio := prio
			sw.sim.Schedule(d, func() {
				if pt.paused&bit != 0 && pt.pauseEnd[prio] == end {
					pt.paused &^= bit
					sw.kick(port)
				}
			})
		case f.IsResume(prio):
			pt.paused &^= bit
			sw.kick(port)
		}
	}
}

// sendPause emits a PFC pause to the upstream device on inPort for the
// given priority, remembering it for the matching resume.
func (sw *Switch) sendPause(inPort, egressPort, queue int) {
	ept := sw.ports[egressPort]
	if _, already := ept.pausedUpstream[queue][inPort]; already {
		return
	}
	ept.pausedUpstream[queue][inPort] = struct{}{}
	ept.xoffOut[queue] = true
	sw.sendPFC(inPort, pkt.Pause(uint8(queue), 0xffff))
}

// sendResume emits PFC resumes to every upstream we paused for this
// egress queue.
func (sw *Switch) sendResume(egressPort, queue int) {
	ept := sw.ports[egressPort]
	for inPort := range ept.pausedUpstream[queue] {
		sw.sendPFC(inPort, pkt.Resume(uint8(queue)))
		delete(ept.pausedUpstream[queue], inPort)
	}
	ept.xoffOut[queue] = false
}

func (sw *Switch) sendPFC(port int, f *pkt.PFCFrame) {
	p := &pkt.Packet{
		Kind:    pkt.KindPFC,
		WireLen: pkt.MinEthernetFrame,
		PFC:     f,
	}
	sw.SendFromPort(port, p)
}

// String identifies the switch in logs.
func (sw *Switch) String() string { return fmt.Sprintf("switch(%d,%s)", sw.ID, sw.Name) }
