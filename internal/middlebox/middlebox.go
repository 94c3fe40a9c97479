// Package middlebox implements the paper's §3.7 principles for extending
// flow event telemetry to middleboxes (firewalls, load balancers, …):
//
//  1. Inter-device drop awareness — the middlebox runs the same
//     packet-ID/ring-buffer modules as switches and NICs on both of its
//     links, so drops on the wire to or from it are detected and the
//     victim flows recovered.
//  2. Event-based anomaly detection — the middlebox detects local events
//     (processing-queue overflow, rule-table drops) as flow events rather
//     than coarse counters.
//  3. Reliable report — events are delivered to the same backend through
//     a reliable channel.
//
// The model here is a bump-in-the-wire device with a finite processing
// queue and service rate (think software load balancer): traffic enters
// on one side, is processed, and leaves on the other. Overload drops are
// reported as flow events; wire losses on either side are recovered via
// the seq modules.
package middlebox

import (
	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
)

// Side identifies one of the middlebox's two attachments.
type Side int

// Sides.
const (
	// North faces the fabric (switch side).
	North Side = iota
	// South faces the servers.
	South
)

// Config parameterizes a middlebox.
type Config struct {
	// ServiceBps is the processing capacity (default 20 Gb/s — software
	// packet processing, below line rate by design).
	ServiceBps float64
	// QueueBytes is the processing-queue depth (default 256 KB).
	QueueBytes int
	// DisableSeq turns off the inter-device drop modules (a legacy
	// middlebox that violates principle 1).
	DisableSeq bool
	// SwitchID identifies this middlebox in reported events.
	SwitchID uint16
}

func (c Config) withDefaults() Config {
	if c.ServiceBps <= 0 {
		c.ServiceBps = 20e9
	}
	if c.QueueBytes <= 0 {
		c.QueueBytes = 256 << 10
	}
	return c
}

// ringSlots sizes each side's egress ring.
const ringSlots = 256

// EventSink receives the middlebox's flow events (principle 3 — in
// production this is a collector.Client over TCP).
type EventSink interface {
	Deliver(b *fevent.Batch)
}

// side is the per-attachment state.
type side struct {
	lnk   *link.Link
	fromA bool
	seq   seqtrack.Port
}

// Middlebox is a bump-in-the-wire device with FET instrumentation.
type Middlebox struct {
	sim  *sim.Simulator
	cfg  Config
	sink EventSink

	sides [2]side

	// Processing queue.
	queued    int
	busyUntil sim.Time

	// Stats.
	Processed  uint64
	Overloaded uint64 // local queue-overflow drops
	Recovered  uint64 // wire drops recovered from rings
}

// sideDev adapts link.Device delivery to a specific side.
type sideDev struct {
	mb *Middlebox
	s  Side
}

// Receive implements link.Device.
func (d *sideDev) Receive(p *pkt.Packet, port int) { d.mb.receive(d.s, p) }

// New creates a middlebox. Attach both sides with AttachLink before
// sending traffic through it.
func New(s *sim.Simulator, cfg Config, sink EventSink) *Middlebox {
	if sink == nil {
		panic("middlebox: sink must not be nil")
	}
	cfg = cfg.withDefaults()
	mb := &Middlebox{sim: s, cfg: cfg, sink: sink}
	for i := range mb.sides {
		mb.sides[i].seq = seqtrack.NewPort(ringSlots)
	}
	return mb
}

// Device returns the link.Device endpoint for the given side.
func (mb *Middlebox) Device(s Side) link.Device { return &sideDev{mb: mb, s: s} }

// AttachLink binds a side to its link (the middlebox transmits from the
// given link side).
func (mb *Middlebox) AttachLink(s Side, l *link.Link, fromA bool) {
	mb.sides[s].lnk = l
	mb.sides[s].fromA = fromA
}

func (mb *Middlebox) other(s Side) Side {
	if s == North {
		return South
	}
	return North
}

// receive handles one frame arriving on side s.
func (mb *Middlebox) receive(s Side, p *pkt.Packet) {
	sd := &mb.sides[s]
	if p.Corrupt {
		return // gap detection recovers the flow
	}
	switch p.Kind {
	case pkt.KindLossNotify:
		// The processor loops: resolve the whole gap at once.
		sd.seq.Accept(p.Payload)
		for sd.seq.Pending() {
			if e, ok := sd.seq.Resolve(); ok {
				mb.Recovered++
				mb.report(fevent.Event{
					Type: fevent.TypeDrop, Flow: e.Flow,
					DropCode: fevent.DropInterSwitch,
					Count:    1, Hash: e.Flow.Hash(),
				})
			}
		}
		return
	case pkt.KindPFC:
		return
	}
	if !mb.cfg.DisableSeq {
		if gap, ok := sd.seq.Strip(p); ok && sd.lnk != nil {
			seqtrack.Notify(gap, func(np *pkt.Packet) { sd.lnk.Send(sd.fromA, np) })
		}
	}
	mb.process(s, p)
}

// process runs the packet through the finite-capacity service stage and
// forwards it out the other side (principle 2: overload is an *event*
// with the victim flow, not just a counter).
func (mb *Middlebox) process(from Side, p *pkt.Packet) {
	if mb.queued+p.WireLen > mb.cfg.QueueBytes {
		mb.Overloaded++
		mb.report(fevent.Event{
			Type: fevent.TypeDrop, Flow: p.Flow,
			DropCode: fevent.DropMMUCongestion, // buffer exhaustion
			Count:    1, Hash: p.FlowHash(),
		})
		return
	}
	mb.queued += p.WireLen
	service := sim.Time(float64(p.WireLen*8) / mb.cfg.ServiceBps * 1e9)
	start := mb.sim.Now()
	if mb.busyUntil > start {
		start = mb.busyUntil
	}
	mb.busyUntil = start + service
	out := mb.other(from)
	mb.sim.At(mb.busyUntil, func() {
		mb.queued -= p.WireLen
		mb.Processed++
		mb.transmit(out, p)
	})
}

// transmit numbers and records the packet on the egress side, then sends.
func (mb *Middlebox) transmit(s Side, p *pkt.Packet) {
	sd := &mb.sides[s]
	if sd.lnk == nil {
		return
	}
	if !mb.cfg.DisableSeq {
		sd.seq.Tag(p)
	}
	sd.lnk.Send(sd.fromA, p)
}

// report ships one event to the sink (principle 3).
func (mb *Middlebox) report(e fevent.Event) {
	e.SwitchID = mb.cfg.SwitchID
	e.Timestamp = mb.sim.Now()
	mb.sink.Deliver(&fevent.Batch{
		SwitchID:  mb.cfg.SwitchID,
		Timestamp: mb.sim.Now(),
		Events:    []fevent.Event{e},
	})
}
