package nic

import (
	"runtime"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/seqtrack"
	"netseer/internal/sim"
)

// pair wires two NICs over one raw link.
type pair struct {
	sim  *sim.Simulator
	l    *link.Link
	a, b *NIC
	toA  []*pkt.Packet
	toB  []*pkt.Packet
}

func newPair(t *testing.T, cfg Config) *pair {
	t.Helper()
	s := sim.New()
	p := &pair{sim: s}
	var aFwd, bFwd Handler
	aFwd = func(pk *pkt.Packet) { p.toA = append(p.toA, pk) }
	bFwd = func(pk *pkt.Packet) { p.toB = append(p.toB, pk) }
	aDef, bDef := &deferred{}, &deferred{}
	p.l = link.New(s, link.Endpoint{Dev: aDef, Port: 0}, link.Endpoint{Dev: bDef, Port: 0},
		sim.Microsecond, sim.NewStream(4, "nicpair"))
	p.a = New(s, p.l, true, cfg, nil, aFwd)
	p.b = New(s, p.l, false, cfg, nil, bFwd)
	aDef.dev = p.a
	bDef.dev = p.b
	return p
}

type deferred struct{ dev link.Device }

func (d *deferred) Receive(pk *pkt.Packet, port int) {
	if d.dev != nil {
		d.dev.Receive(pk, port)
	}
}

func mkPkt(id uint64, size int) *pkt.Packet {
	return &pkt.Packet{
		ID: id, Kind: pkt.KindData,
		Flow:    pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP},
		WireLen: size, TTL: 64,
	}
}

func TestSendReceiveStripsTag(t *testing.T) {
	p := newPair(t, Config{})
	p.a.Send(mkPkt(1, 500))
	p.sim.RunAll()
	if len(p.toB) != 1 {
		t.Fatalf("delivered %d", len(p.toB))
	}
	got := p.toB[0]
	if got.HasSeqTag {
		t.Error("tag not stripped before handler")
	}
	if got.WireLen != 500 {
		t.Errorf("wire len %d, want 500 restored", got.WireLen)
	}
}

func TestSerializationPacing(t *testing.T) {
	// 2 × 1250 B at 25 Gb/s (default): 400 ns each + tag bytes; the second
	// packet must leave after the first finishes.
	p := newPair(t, Config{})
	p.a.Send(mkPkt(1, 1250))
	p.a.Send(mkPkt(2, 1250))
	p.sim.RunAll()
	if len(p.toB) != 2 {
		t.Fatalf("delivered %d", len(p.toB))
	}
	// Delivery instants differ by one serialization time (~402 ns with the
	// 6-byte tag).
	if p.sim.Now() < sim.Microsecond+800*sim.Nanosecond {
		t.Errorf("finished too early: %v", p.sim.Now())
	}
}

func TestGapDetectionAndLog(t *testing.T) {
	p := newPair(t, Config{})
	for i := 0; i < 5; i++ {
		p.a.Send(mkPkt(uint64(i), 300))
	}
	p.sim.RunAll()
	p.l.InjectLossBurst(true, 3)
	for i := 5; i < 8; i++ {
		p.a.Send(mkPkt(uint64(i), 300)) // all lost
	}
	for i := 8; i < 12; i++ {
		p.a.Send(mkPkt(uint64(i), 300)) // reveal the gap
	}
	p.sim.RunAll()
	if len(p.a.Log) != 3 {
		t.Fatalf("log has %d entries, want 3", len(p.a.Log))
	}
	for _, e := range p.a.Log {
		if e.Type != fevent.TypeDrop || e.DropCode != fevent.DropInterSwitch {
			t.Errorf("log entry %v", e.String())
		}
	}
	_, _, _, gaps := p.b.Stats()
	if gaps != 1 {
		t.Errorf("gap episodes = %d, want 1", gaps)
	}
}

func TestCorruptFrameDiscarded(t *testing.T) {
	p := newPair(t, Config{})
	p.a.Send(mkPkt(1, 300))
	p.sim.RunAll()
	p.l.SetFault(true, link.Fault{CorruptProb: 1})
	p.a.Send(mkPkt(2, 300))
	p.sim.RunAll()
	p.l.SetFault(true, link.Fault{})
	p.a.Send(mkPkt(3, 300))
	p.sim.RunAll()
	if len(p.toB) != 2 {
		t.Fatalf("handler saw %d packets, want 2 (corrupt one discarded)", len(p.toB))
	}
	_, _, corrupt, _ := p.b.Stats()
	if corrupt != 1 {
		t.Errorf("corrupt counter = %d", corrupt)
	}
	// The corruption-induced gap is recovered into A's log.
	if len(p.a.Log) != 1 {
		t.Errorf("log = %d entries, want 1", len(p.a.Log))
	}
}

func TestDisableSeqNoTagsNoLog(t *testing.T) {
	p := newPair(t, Config{DisableSeq: true})
	p.a.Send(mkPkt(1, 300))
	p.sim.RunAll()
	p.l.InjectLossBurst(true, 1)
	p.a.Send(mkPkt(2, 300))
	p.a.Send(mkPkt(3, 300))
	p.sim.RunAll()
	if len(p.a.Log) != 0 {
		t.Error("log entries despite DisableSeq")
	}
	for _, got := range p.toB {
		if got.HasSeqTag {
			t.Error("tagged packet despite DisableSeq")
		}
	}
}

func TestPFCStateTracking(t *testing.T) {
	p := newPair(t, Config{})
	p.l.Send(true, &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Pause(2, 0xffff)})
	p.sim.RunAll()
	if !p.b.Paused(2) {
		t.Error("priority 2 not paused")
	}
	if p.b.Paused(3) {
		t.Error("priority 3 spuriously paused")
	}
	p.l.Send(true, &pkt.Packet{Kind: pkt.KindPFC, WireLen: 64, PFC: pkt.Resume(2)})
	p.sim.RunAll()
	if p.b.Paused(2) {
		t.Error("priority 2 not resumed")
	}
}

func TestNotifyCopiesAreDeduplicated(t *testing.T) {
	p := newPair(t, Config{})
	for i := 0; i < 3; i++ {
		p.a.Send(mkPkt(uint64(i), 300))
	}
	p.sim.RunAll()
	p.l.InjectLossBurst(true, 1)
	p.a.Send(mkPkt(10, 300))
	p.a.Send(mkPkt(11, 300))
	p.sim.RunAll()
	// Three notification copies arrive; the victim appears once in the
	// log.
	if len(p.a.Log) != 1 {
		t.Errorf("log = %d entries, want 1 despite 3 notify copies", len(p.a.Log))
	}
}

// TestOneArmedDeparturePerNIC: the backlog waits in the NIC, not in the
// simulator's queue — one departure is armed however many packets are
// queued — and each packet still leaves at the previous departure plus its
// own serialization time, also when a send finds the line busy part-way.
func TestOneArmedDeparturePerNIC(t *testing.T) {
	p := newPair(t, Config{DisableSeq: true})
	var arrived []sim.Time
	p.b.handler = func(*pkt.Packet) { arrived = append(arrived, p.sim.Now()) }
	sizes := []int{1250, 64, 1500, 625}
	for i, size := range sizes[:3] {
		p.a.Send(mkPkt(uint64(i), size))
		if n := p.sim.Pending(); n != 1 {
			t.Fatalf("%d events pending with %d packets queued; want the one armed departure", n, i+1)
		}
	}
	p.sim.Run(410) // the first packet left at 400 ns and is on the wire
	if n := p.sim.Pending(); n != 2 {
		t.Fatalf("%d events pending; want the next departure and one arrival", n)
	}
	p.a.Send(mkPkt(3, sizes[3]))
	p.sim.RunAll()
	want := sim.Microsecond // propagation
	for i, size := range sizes {
		want += sim.Time(float64(size*8) / 25e9 * 1e9)
		if i >= len(arrived) || arrived[i] != want {
			t.Fatalf("arrivals %v; packet %d due at %v", arrived, i, want)
		}
	}
}

func TestNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil handler did not panic")
		}
	}()
	New(sim.New(), nil, true, Config{}, nil, nil)
}

func TestStatsCounters(t *testing.T) {
	p := newPair(t, Config{})
	p.a.Send(mkPkt(1, 300))
	p.sim.RunAll()
	tx, _, _, _ := p.a.Stats()
	_, rx, _, _ := p.b.Stats()
	if tx != 1 || rx != 1 {
		t.Errorf("tx=%d rx=%d", tx, rx)
	}
}

// TestSendZeroAllocSteadyState pins NIC.Send through serialization onto
// the wire at zero allocations: the packets waiting for the line sit in
// the NIC's queue behind one pre-bound closure. Back-to-back sends queue
// several at once, and they must leave in order.
func TestSendZeroAllocSteadyState(t *testing.T) {
	p := newPair(t, Config{DisableSeq: true})
	var order []uint64
	p.b.handler = func(pk *pkt.Packet) { order = append(order, pk.ID) }
	pkts := []*pkt.Packet{mkPkt(1, 1000), mkPkt(2, 64), mkPkt(3, 1500), mkPkt(4, 64)}
	burst := func() {
		for _, pk := range pkts {
			p.a.Send(pk)
		}
		p.sim.RunAll()
	}
	burst() // warm the queues and the scheduler's free list
	for i, id := range order {
		if id != uint64(i+1) {
			t.Fatalf("burst arrived in order %v", order)
		}
	}
	order = make([]uint64, 0, 4*202)
	if n := testing.AllocsPerRun(200, burst); n != 0 {
		t.Errorf("NIC.Send→wire allocates %v times per 4 packets; budget is 0", n)
	}
}

// wireTap records what reaches the far end of a link, tag included, and
// when.
type wireTap struct {
	sim *sim.Simulator
	at  []sim.Time
	got []pkt.Packet
}

func (w *wireTap) Receive(p *pkt.Packet, _ int) {
	w.at = append(w.at, w.sim.Now())
	w.got = append(w.got, *p)
}

// TestBurstMatchesSingleSends: a burst the NIC builds as it departs puts
// on the wire exactly what the same packets built by the caller and sent
// one by one do: the same departure instants, and packets equal field for
// field, edge tag included. The script has a burst that finds the line
// idle, a Send, an empty burst and a burst queued while it is busy, and a
// burst after it went idle again.
func TestBurstMatchesSingleSends(t *testing.T) {
	flowA := pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	flowB := pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 5, DstPort: 4, Proto: pkt.ProtoUDP}
	run := func(cfg Config, bursts bool) *wireTap {
		s := sim.New()
		tap := &wireTap{sim: s}
		l := link.New(s, link.Endpoint{Dev: &deferred{}}, link.Endpoint{Dev: tap},
			sim.Microsecond, sim.NewStream(4, "burst"))
		n := New(s, l, true, cfg, nil, func(*pkt.Packet) {})
		burst := func(flow pkt.FlowKey, count, wireLen int, prio uint8) {
			if bursts {
				n.SendBurst(flow, count, wireLen, prio)
				return
			}
			for i := 0; i < count; i++ {
				n.Send(&pkt.Packet{Kind: pkt.KindData, Flow: flow, WireLen: wireLen, TTL: 64, Priority: prio, SentAt: s.Now()})
			}
		}
		s.At(0, func() { burst(flowA, 5, 1000, 3) })
		s.At(1500*sim.Nanosecond, func() { // the first burst's fifth packet is on the wire
			n.Send(&pkt.Packet{Kind: pkt.KindProbe, Flow: flowB, WireLen: 64, TTL: 64, Priority: 1, SentAt: s.Now()})
			burst(flowB, 0, 300, 0) // sends nothing
			burst(flowB, 4, 300, 0)
		})
		s.At(20*sim.Microsecond, func() { burst(flowA, 3, 1500, 7) })
		s.RunAll()
		return tap
	}
	type fields struct {
		kind      pkt.Kind
		flow      pkt.FlowKey
		wireLen   int
		ttl, prio uint8
		sentAt    sim.Time
		seqTag    uint32
		hasSeqTag bool
	}
	of := func(p pkt.Packet) fields {
		return fields{p.Kind, p.Flow, p.WireLen, p.TTL, p.Priority, p.SentAt, p.SeqTag, p.HasSeqTag}
	}
	for _, cfg := range []Config{{}, {DisableSeq: true}} {
		burst, single := run(cfg, true), run(cfg, false)
		if len(burst.got) != 13 || len(single.got) != 13 {
			t.Fatalf("DisableSeq=%v: %d packets from bursts, %d from single sends; want 13 each", cfg.DisableSeq, len(burst.got), len(single.got))
		}
		// The first burst found the line idle: its packets leave one
		// serialization time apart, tag included.
		wire := 1000
		if !cfg.DisableSeq {
			wire += pkt.NetSeerTagLen
		}
		ser := sim.Time(float64(wire*8) / lineBps * 1e9)
		for k := 0; k < 5; k++ {
			if want := sim.Microsecond + sim.Time(k+1)*ser; burst.at[k] != want {
				t.Errorf("DisableSeq=%v: burst packet %d arrived at %v, want %v", cfg.DisableSeq, k, burst.at[k], want)
			}
		}
		for i := range burst.got {
			if burst.at[i] != single.at[i] {
				t.Errorf("DisableSeq=%v: packet %d arrived at %v from a burst, %v sent alone", cfg.DisableSeq, i, burst.at[i], single.at[i])
			}
			if b, s := of(burst.got[i]), of(single.got[i]); b != s {
				t.Errorf("DisableSeq=%v: packet %d is %+v from a burst, %+v sent alone", cfg.DisableSeq, i, b, s)
			}
			if tagged := burst.got[i].HasSeqTag; tagged == cfg.DisableSeq || (tagged && burst.got[i].SeqTag != uint32(i)) {
				t.Errorf("DisableSeq=%v: packet %d has tag %v %d", cfg.DisableSeq, i, tagged, burst.got[i].SeqTag)
			}
		}
	}
}

// TestLossNotifyWorkIsBoundedByRing: a notification for a gap far longer
// than the ring costs work and memory bounded by the ring, not by the
// gap. Only the newest 256 IDs can still be resident, so the log grows by
// exactly those, and the 2²⁴ older IDs are clipped without being queued.
func TestLossNotifyWorkIsBoundedByRing(t *testing.T) {
	p := newPair(t, Config{})
	const sent = 1000
	for i := 0; i < sent; i++ {
		p.a.Send(mkPkt(uint64(i), 300))
	}
	p.sim.RunAll()
	logged := len(p.a.Log)
	newest := uint32(sent - 1)
	gap := seqtrack.Notification{FromID: newest - 1<<24 + 1, ToID: newest}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.a.Receive(&pkt.Packet{Kind: pkt.KindLossNotify, WireLen: pkt.MinEthernetFrame, Payload: gap.AppendTo(nil)}, 0)
	runtime.ReadMemStats(&after)
	if got := len(p.a.Log) - logged; got != ringSlots {
		t.Errorf("log grew by %d, want the %d resident IDs", got, ringSlots)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Errorf("one notification allocated %d B; want < 1 MiB", grew)
	}
}
