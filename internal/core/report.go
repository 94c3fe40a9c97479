package core

import (
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
)

// This file implements Steps 2→4 plumbing: group-cache report handling,
// extraction into 24-byte records, CEBP batch delivery to the switch CPU,
// false-positive elimination, pacing and export.

// statEventPacket accounts one Step-1 selected event packet of type typ.
func (n *NetSeerSwitch) statEventPacket(typ fevent.Type, wireLen int) {
	n.stats.Detections[typ]++
	n.stats.EventBytes += uint64(wireLen)
}

// statDropPacket accounts one Step-1 drop event packet with its code.
func (n *NetSeerSwitch) statDropPacket(code fevent.DropCode, wireLen int) {
	n.statEventPacket(fevent.TypeDrop, wireLen)
	n.stats.Drops[code]++
}

// eventPackets is the number of Step-1 event packets: the detections of
// the four types Step 1 selects.
func (n *NetSeerSwitch) eventPackets() uint64 {
	d := &n.stats.Detections
	return d[fevent.TypeDrop] + d[fevent.TypeCongestion] + d[fevent.TypePathChange] + d[fevent.TypePause]
}

// offerEventPacket accounts and feeds a drop event packet recovered from
// the ring buffer.
func (n *NetSeerSwitch) offerEventPacket(ev *fevent.Event, wireLen int) {
	n.statDropPacket(ev.DropCode, wireLen)
	n.dropTable.Offer(ev)
}

// onSketchEvent receives the sketch stage's detections (heavy-hitter
// onset, top-K churn, aggregate spikes). They bypass Step-2 group caching
// — the sketch structures already aggregate — and join the pipeline at
// Step 3, like path-change events do.
func (n *NetSeerSwitch) onSketchEvent(e *fevent.Event) {
	n.stats.Detections[e.Type]++
	n.onFlowEvent(e)
}

// onFlowEvent receives Step-2 output (deduplicated flow events) and runs
// Step 3: extraction to the 24-byte record and a push onto the CEBP stack.
func (n *NetSeerSwitch) onFlowEvent(e *fevent.Event) {
	e.SwitchID = n.sw.ID
	e.Timestamp = n.sim.Now()
	n.stats.DedupReports++
	// Until extraction, the event still occupies a packet inside the
	// pipeline; account the average event-packet size for the Fig. 13
	// step-2 volume.
	if pkts := n.eventPackets(); pkts > 0 {
		n.stats.DedupBytes += n.stats.EventBytes / pkts
	}
	n.stats.ExtractedBytes += fevent.RecordLen
	if n.inBurst {
		// Mid-burst: buffer the record; EndBurst hands the whole burst's
		// extractions to the CEBP stack at once.
		n.extractBuf = append(n.extractBuf, *e)
		return
	}
	n.batcher.Push(e)
}

// BeginBurst implements dataplane.BurstTelemetry: the data plane is about
// to run its pipeline over a coalesced burst of ingress arrivals.
func (n *NetSeerSwitch) BeginBurst(int) { n.inBurst = true }

// EndBurst implements dataplane.BurstTelemetry: the burst is through, so
// the records extracted during the burst go to the CEBP stack in one bulk
// push (same stack order and overflow accounting as per-record pushes —
// no simulated time passes inside a burst).
func (n *NetSeerSwitch) EndBurst() {
	n.inBurst = false
	if len(n.extractBuf) == 0 {
		return
	}
	n.batcher.PushBurst(n.extractBuf)
	n.extractBuf = n.extractBuf[:0]
}

// onBatch receives a flushed CEBP at the switch CPU: Step 4.
func (n *NetSeerSwitch) onBatch(b *fevent.Batch) {
	now := n.sim.Now()
	for i := range b.Events {
		// Detection→CPU staleness on the switch clock: the event was
		// stamped when Step 2 reported it, and has just reached the CPU.
		if ts := b.Events[i].Timestamp; now >= ts {
			n.latDetectToCPU.Observe(float64(now-ts) / 1e3)
		}
	}
	// Run the whole batch through false-positive elimination in one pass
	// (in-place filter — the batch slice is the batcher's scratch, reset
	// right after this callback returns); a sampled batch records the
	// fpelim span and chains the context's parent.
	kept := n.elim.OfferBatch(&b.Trace, b.Events)
	if len(kept) > 0 && b.Trace.Valid() {
		// The export batch inherits the context of the last CEBP batch
		// that fed it (see outTrace).
		n.outTrace = b.Trace
	}
	for i := range kept {
		if n.outBuf == nil {
			// One pre-sized allocation per export batch (the batch hands
			// the slice to the sink) instead of append-doubling toward it.
			n.outBuf = make([]fevent.Event, 0, fevent.DefaultBatchSize)
		}
		n.outBuf = append(n.outBuf, kept[i])
		if len(n.outBuf) >= fevent.DefaultBatchSize {
			n.exportNow()
		}
	}
}

// exportNow flushes the CPU's outgoing buffer to the sink, paced.
func (n *NetSeerSwitch) exportNow() {
	if len(n.outBuf) == 0 {
		return
	}
	events := n.outBuf
	n.outBuf = nil
	batch := &fevent.Batch{
		SwitchID:  n.sw.ID,
		Timestamp: n.sim.Now(),
		Events:    events,
		Trace:     n.outTrace,
	}
	n.outTrace = trace.Context{}
	size := batch.EncodedLen()
	n.stats.ExportedEvents += uint64(len(events))
	n.stats.ExportedBytes += uint64(size)
	delay := n.pacer.Admit(n.sim.Now(), size)
	if delay <= 0 {
		n.sink.Deliver(batch)
		return
	}
	n.sim.Schedule(delay, func() { n.sink.Deliver(batch) })
}
