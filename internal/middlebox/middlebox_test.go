package middlebox

import (
	"runtime"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
)

// rig: NIC-A ── linkA ── [middlebox] ── linkB ── NIC-B.
type rig struct {
	sim    *sim.Simulator
	mb     *Middlebox
	a, b   *nic.NIC
	linkA  *link.Link
	linkB  *link.Link
	events []fevent.Event
	toA    []*pkt.Packet
	toB    []*pkt.Packet
}

type sink struct{ r *rig }

func (s *sink) Deliver(b *fevent.Batch) { s.r.events = append(s.r.events, b.Events...) }

type deferredDev struct{ dev link.Device }

func (d *deferredDev) Receive(p *pkt.Packet, port int) {
	if d.dev != nil {
		d.dev.Receive(p, port)
	}
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	s := sim.New()
	r := &rig{sim: s}
	r.mb = New(s, cfg, &sink{r})

	aDef, mbNorthDef := &deferredDev{}, &deferredDev{}
	r.linkA = link.New(s, link.Endpoint{Dev: aDef, Port: 0}, link.Endpoint{Dev: mbNorthDef, Port: 0},
		sim.Microsecond, sim.NewStream(1, "mbA"))
	mbSouthDef, bDef := &deferredDev{}, &deferredDev{}
	r.linkB = link.New(s, link.Endpoint{Dev: mbSouthDef, Port: 0}, link.Endpoint{Dev: bDef, Port: 0},
		sim.Microsecond, sim.NewStream(2, "mbB"))

	r.a = nic.New(s, r.linkA, true, nic.Config{}, nil, func(p *pkt.Packet) { r.toA = append(r.toA, p) })
	r.b = nic.New(s, r.linkB, false, nic.Config{}, nil, func(p *pkt.Packet) { r.toB = append(r.toB, p) })
	aDef.dev = r.a
	bDef.dev = r.b
	mbNorthDef.dev = r.mb.Device(North)
	mbSouthDef.dev = r.mb.Device(South)
	r.mb.AttachLink(North, r.linkA, false) // middlebox is the B side of linkA
	r.mb.AttachLink(South, r.linkB, true)  // and the A side of linkB
	return r
}

func flow(n uint32) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: n, DstIP: 99, SrcPort: uint16(n), DstPort: 80, Proto: pkt.ProtoTCP}
}

func (r *rig) send(f pkt.FlowKey, size int) {
	r.a.Send(&pkt.Packet{ID: 1, Kind: pkt.KindData, Flow: f, WireLen: size, TTL: 64})
}

func TestPassThrough(t *testing.T) {
	r := newRig(t, Config{})
	for i := 0; i < 20; i++ {
		r.send(flow(1), 724)
	}
	r.sim.RunAll()
	if len(r.toB) != 20 {
		t.Fatalf("delivered %d of 20 through the middlebox", len(r.toB))
	}
	if r.mb.Processed != 20 {
		t.Errorf("Processed = %d", r.mb.Processed)
	}
	for _, p := range r.toB {
		if p.HasSeqTag {
			t.Error("tag leaked to host")
		}
	}
}

func TestOverloadReportsFlowEvents(t *testing.T) {
	// Service 1 Gb/s with a 10 kB queue: a 100-packet burst overflows.
	r := newRig(t, Config{ServiceBps: 1e9, QueueBytes: 10 << 10})
	for i := 0; i < 100; i++ {
		r.send(flow(7), 1000)
	}
	r.sim.RunAll()
	if r.mb.Overloaded == 0 {
		t.Fatal("no overload drops")
	}
	var reported bool
	for _, e := range r.events {
		if e.Type == fevent.TypeDrop && e.Flow == flow(7) {
			reported = true
		}
	}
	if !reported {
		t.Error("overload drop not reported as a flow event (principle 2)")
	}
	if int(r.mb.Processed)+int(r.mb.Overloaded) != 100 {
		t.Errorf("processed %d + overloaded %d != 100", r.mb.Processed, r.mb.Overloaded)
	}
}

func TestWireLossTowardMiddleboxRecovered(t *testing.T) {
	// Loss on NIC-A → middlebox: the middlebox's tracker detects the gap,
	// NIC-A's ring recovers the flow into its local log.
	r := newRig(t, Config{})
	for i := 0; i < 3; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	r.linkA.InjectLossBurst(true, 2)
	r.send(flow(2), 300)
	r.send(flow(2), 300)
	for i := 0; i < 3; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	if len(r.a.Log) != 2 {
		t.Fatalf("NIC log has %d entries, want 2", len(r.a.Log))
	}
	for _, e := range r.a.Log {
		if e.Flow != flow(2) {
			t.Errorf("recovered wrong flow %v", e.Flow)
		}
	}
}

func TestWireLossFromMiddleboxRecovered(t *testing.T) {
	// Loss on middlebox → NIC-B: NIC-B detects the gap, the middlebox's
	// ring recovers the victims and reports them (principle 1).
	r := newRig(t, Config{})
	for i := 0; i < 3; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	r.linkB.InjectLossBurst(true, 2)
	r.send(flow(5), 300)
	r.send(flow(5), 300)
	r.sim.RunAll()
	for i := 0; i < 3; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	if r.mb.Recovered != 2 {
		t.Fatalf("recovered %d of 2 wire drops", r.mb.Recovered)
	}
	var found int
	for _, e := range r.events {
		if e.DropCode == fevent.DropInterSwitch && e.Flow == flow(5) {
			found++
		}
	}
	if found != 2 {
		t.Errorf("reported %d inter-device drops for the victim flow", found)
	}
}

func TestLegacyMiddleboxMissesWireLoss(t *testing.T) {
	// DisableSeq (a middlebox violating principle 1): wire drops around
	// it are invisible.
	r := newRig(t, Config{DisableSeq: true})
	for i := 0; i < 3; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	r.linkB.InjectLossBurst(true, 2)
	for i := 0; i < 6; i++ {
		r.send(flow(1), 300)
	}
	r.sim.RunAll()
	if r.mb.Recovered != 0 {
		t.Error("legacy middlebox recovered wire drops without seq modules")
	}
	if len(r.events) != 0 {
		t.Errorf("%d events from a legacy middlebox", len(r.events))
	}
}

func TestNilSinkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil sink did not panic")
		}
	}()
	New(sim.New(), Config{}, nil)
}

// TestLossNotifyWorkIsBoundedByRing: a notification for a gap far longer
// than a side's ring costs work and memory bounded by the ring, not by
// the gap. Only the newest 256 IDs can still be resident, so the report
// count grows by exactly those, and the 2²⁴ older IDs are clipped without
// being queued.
func TestLossNotifyWorkIsBoundedByRing(t *testing.T) {
	r := newRig(t, Config{})
	const sent = 1000
	for i := 0; i < sent; i++ {
		r.send(flow(uint32(i)), 300)
		if i%100 == 99 {
			r.sim.RunAll() // stay inside the processing queue
		}
	}
	r.sim.RunAll()
	if r.mb.Processed != sent {
		t.Fatalf("processed %d of %d", r.mb.Processed, sent)
	}
	reported := len(r.events)
	newest := uint32(sent - 1) // the South side tagged IDs 0…999
	gap := seqtrack.Notification{FromID: newest - 1<<24 + 1, ToID: newest}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	r.mb.Device(South).Receive(&pkt.Packet{Kind: pkt.KindLossNotify, WireLen: pkt.MinEthernetFrame, Payload: gap.AppendTo(nil)}, 0)
	runtime.ReadMemStats(&after)
	if got := len(r.events) - reported; got != ringSlots {
		t.Errorf("reports grew by %d, want the %d resident IDs", got, ringSlots)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("one notification allocated %d B; want < 1 MiB", grew)
	}
}
