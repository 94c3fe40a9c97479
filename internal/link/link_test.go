package link

import (
	"testing"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

type sink struct {
	got   []*pkt.Packet
	ports []int
}

func (s *sink) Receive(p *pkt.Packet, port int) {
	s.got = append(s.got, p)
	s.ports = append(s.ports, port)
}

func newTestLink(t *testing.T) (*sim.Simulator, *Link, *sink, *sink) {
	t.Helper()
	s := sim.New()
	a, b := &sink{}, &sink{}
	l := New(s, Endpoint{a, 3}, Endpoint{b, 7}, sim.Microsecond, sim.NewStream(1, "link"))
	return s, l, a, b
}

func TestDeliveryWithPropDelay(t *testing.T) {
	s, l, _, b := newTestLink(t)
	p := &pkt.Packet{ID: 1, WireLen: 100}
	l.Send(true, p)
	s.RunAll()
	if len(b.got) != 1 || b.got[0].ID != 1 {
		t.Fatalf("delivery failed: %v", b.got)
	}
	if b.ports[0] != 7 {
		t.Errorf("delivered on port %d, want 7", b.ports[0])
	}
	if s.Now() != sim.Microsecond {
		t.Errorf("delivered at %v, want 1µs", s.Now())
	}
}

func TestBidirectional(t *testing.T) {
	s, l, a, b := newTestLink(t)
	l.Send(true, &pkt.Packet{ID: 1})
	l.Send(false, &pkt.Packet{ID: 2})
	s.RunAll()
	if len(b.got) != 1 || len(a.got) != 1 {
		t.Fatalf("a got %d, b got %d", len(a.got), len(b.got))
	}
	if a.ports[0] != 3 {
		t.Errorf("a received on port %d, want 3", a.ports[0])
	}
}

func TestSilentLoss(t *testing.T) {
	s, l, _, b := newTestLink(t)
	l.SetFault(true, Fault{SilentLossProb: 1.0})
	for i := 0; i < 10; i++ {
		l.Send(true, &pkt.Packet{ID: uint64(i)})
	}
	s.RunAll()
	if len(b.got) != 0 {
		t.Fatalf("delivered %d frames through lossy link", len(b.got))
	}
	sent, delivered, lost, _ := l.Stats(true)
	if sent != 10 || delivered != 0 || lost != 10 {
		t.Errorf("stats = %d %d %d", sent, delivered, lost)
	}
}

func TestSilentLossRate(t *testing.T) {
	s, l, _, b := newTestLink(t)
	l.SetFault(true, Fault{SilentLossProb: 0.1})
	const n = 10000
	for i := 0; i < n; i++ {
		l.Send(true, &pkt.Packet{ID: uint64(i)})
	}
	s.RunAll()
	got := len(b.got)
	if got < 8700 || got > 9300 {
		t.Errorf("delivered %d of %d at 10%% loss", got, n)
	}
}

func TestCorruptionDeliversDamagedFrame(t *testing.T) {
	s, l, _, b := newTestLink(t)
	l.SetFault(true, Fault{CorruptProb: 1.0})
	l.Send(true, &pkt.Packet{ID: 5})
	s.RunAll()
	if len(b.got) != 1 {
		t.Fatal("corrupted frame not delivered")
	}
	if !b.got[0].Corrupt {
		t.Error("frame not marked corrupt")
	}
	_, _, _, corrupt := l.Stats(true)
	if corrupt != 1 {
		t.Errorf("corrupt count = %d", corrupt)
	}
}

func TestLossBurst(t *testing.T) {
	s, l, _, b := newTestLink(t)
	l.InjectLossBurst(true, 3)
	for i := 0; i < 5; i++ {
		l.Send(true, &pkt.Packet{ID: uint64(i)})
	}
	s.RunAll()
	if len(b.got) != 2 {
		t.Fatalf("delivered %d, want 2 after 3-frame burst", len(b.got))
	}
	if b.got[0].ID != 3 || b.got[1].ID != 4 {
		t.Errorf("wrong survivors: %d %d", b.got[0].ID, b.got[1].ID)
	}
}

func TestBurstIsDirectional(t *testing.T) {
	s, l, a, _ := newTestLink(t)
	l.InjectLossBurst(true, 3)
	l.Send(false, &pkt.Packet{ID: 9})
	s.RunAll()
	if len(a.got) != 1 {
		t.Error("burst on A→B affected B→A")
	}
}

func TestDownLinkDropsEverything(t *testing.T) {
	s, l, a, b := newTestLink(t)
	l.SetDown(true)
	if !l.Down() {
		t.Error("Down() = false")
	}
	l.Send(true, &pkt.Packet{})
	l.Send(false, &pkt.Packet{})
	s.RunAll()
	if len(a.got)+len(b.got) != 0 {
		t.Error("down link delivered frames")
	}
	l.SetDown(false)
	l.Send(true, &pkt.Packet{})
	s.RunAll()
	if len(b.got) != 1 {
		t.Error("restored link did not deliver")
	}
}

func TestValidation(t *testing.T) {
	s := sim.New()
	for _, f := range []func(){
		func() { New(s, Endpoint{}, Endpoint{&sink{}, 0}, 0, sim.NewStream(1, "x")) },
		func() { New(s, Endpoint{&sink{}, 0}, Endpoint{&sink{}, 0}, 0, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid New did not panic")
				}
			}()
			f()
		}()
	}
}

// counter is a Device that only counts, so a test can pin the link's own
// allocations.
type counter struct{ n int }

func (c *counter) Receive(*pkt.Packet, int) { c.n++ }

// TestSendDeliverZeroAlloc pins a frame's whole life on the link's own
// simulator — Send, propagation event, delivery — at zero allocations in
// steady state, with several frames in flight at once.
func TestSendDeliverZeroAlloc(t *testing.T) {
	s := sim.New()
	a, b := &counter{}, &counter{}
	l := New(s, Endpoint{a, 0}, Endpoint{b, 0}, sim.Microsecond, sim.NewStream(1, "link"))
	p := &pkt.Packet{WireLen: 100}
	cycle := func() {
		for i := 0; i < 6; i++ {
			l.Send(i%3 != 0, p)
			s.Run(s.Now() + 100*sim.Nanosecond)
		}
		s.RunAll()
	}
	cycle() // warm the in-flight rings and the scheduler's free list
	if n := testing.AllocsPerRun(200, cycle); n != 0 {
		t.Errorf("Send→deliver allocates %v times per 6 frames; budget is 0", n)
	}
	if a.n+b.n != 6*202 {
		t.Errorf("delivered %d frames, want %d", a.n+b.n, 6*202)
	}
}

// TestInFlightFrameKeepsSendTimeEndpoint: SetEndpoint rewires later
// frames only; one already propagating lands where it was sent, in order.
func TestInFlightFrameKeepsSendTimeEndpoint(t *testing.T) {
	s, l, _, b := newTestLink(t)
	b2 := &sink{}
	l.Send(true, &pkt.Packet{ID: 1})
	l.SetEndpoint(false, Endpoint{b2, 9})
	l.Send(true, &pkt.Packet{ID: 2})
	s.RunAll()
	if len(b.got) != 1 || b.got[0].ID != 1 || b.ports[0] != 7 {
		t.Errorf("in-flight frame: old endpoint got %v on ports %v, want frame 1 on port 7", b.got, b.ports)
	}
	if len(b2.got) != 1 || b2.got[0].ID != 2 || b2.ports[0] != 9 {
		t.Errorf("later frame: new endpoint got %v on ports %v, want frame 2 on port 9", b2.got, b2.ports)
	}
}

// admitter is an Admitter that records what it is handed and when.
type admitter struct {
	sink
	sim      *sim.Simulator
	admitted []admission
	received []sim.Time
}

type admission struct {
	p        *pkt.Packet
	port     int
	sentAt   sim.Time
	arriveAt sim.Time
}

func (a *admitter) Admit(p *pkt.Packet, port int, at sim.Time) {
	a.admitted = append(a.admitted, admission{p, port, a.sim.Now(), at})
}

func (a *admitter) Receive(p *pkt.Packet, port int) {
	a.sink.Receive(p, port)
	a.received = append(a.received, a.sim.Now())
}

// TestAdmitterTakesDataFramesAtSendTime: an intact data frame reaches an
// Admitter when it is sent, stamped with its arrival instant, and costs
// the link no event; PFC, loss-notify and corrupt frames still arrive
// through Receive after the propagation delay.
func TestAdmitterTakesDataFramesAtSendTime(t *testing.T) {
	s := sim.New()
	dst := &admitter{sim: s}
	l := New(s, Endpoint{&sink{}, 0}, Endpoint{dst, 4}, 700*sim.Nanosecond, sim.NewStream(1, "link"))
	s.At(100, func() { l.Send(true, &pkt.Packet{ID: 1, Kind: pkt.KindData}) })
	s.At(200, func() { l.Send(true, &pkt.Packet{ID: 2, Kind: pkt.KindPFC}) })
	s.At(300, func() { l.Send(true, &pkt.Packet{ID: 3, Kind: pkt.KindLossNotify}) })
	s.At(400, func() {
		l.SetFault(true, Fault{CorruptProb: 1})
		l.Send(true, &pkt.Packet{ID: 4, Kind: pkt.KindData})
	})
	s.RunAll()
	if len(dst.admitted) != 1 {
		t.Fatalf("%d frames admitted, want 1", len(dst.admitted))
	}
	if a := dst.admitted[0]; a.p.ID != 1 || a.port != 4 || a.sentAt != 100 || a.arriveAt != 800 {
		t.Errorf("admitted %+v, want frame 1 on port 4 sent at 100 arriving at 800", a)
	}
	var ids []uint64
	for _, p := range dst.got {
		ids = append(ids, p.ID)
	}
	if len(ids) != 3 || ids[0] != 2 || ids[1] != 3 || ids[2] != 4 ||
		dst.received[0] != 900 || dst.received[1] != 1000 || dst.received[2] != 1100 {
		t.Errorf("received frames %v at %v, want 2, 3, 4 at 900, 1000, 1100", ids, dst.received)
	}
	if n := s.Processed(); n != 4+3 {
		t.Errorf("%d events ran, want the 4 sends and 3 arrivals", n)
	}
}

// TestLinkReturnsEndedFramesToPool: a destroyed frame goes back to the
// link's pool after OnLost has seen it intact, and a corrupt one after the
// receiver has discarded it; a delivered intact frame stays the
// receiver's.
func TestLinkReturnsEndedFramesToPool(t *testing.T) {
	s, l, _, b := newTestLink(t)
	l.Pool = pkt.NewPool()
	var lost []pkt.Packet
	l.OnLost = func(_ bool, p *pkt.Packet, _ bool) { lost = append(lost, *p) }
	intact, destroyed, damaged := l.Pool.Get(), l.Pool.Get(), l.Pool.Get()
	intact.WireLen, destroyed.WireLen, damaged.WireLen = 100, 200, 300
	l.Send(true, intact)
	l.InjectLossBurst(true, 1)
	l.Send(true, destroyed)
	l.SetFault(true, Fault{CorruptProb: 1})
	l.Send(true, damaged)
	s.RunAll()
	if len(lost) != 2 || lost[0].WireLen != 200 || lost[1].WireLen != 300 {
		t.Fatalf("OnLost saw %+v, want the destroyed and the damaged frame intact", lost)
	}
	if len(b.got) != 2 || b.got[0] != intact || intact.WireLen != 100 {
		t.Fatalf("receiver got %v, want the intact frame unchanged and the damaged one", b.got)
	}
	if destroyed.WireLen != 0 || damaged.WireLen != 0 {
		t.Errorf("ended frames not released: destroyed %+v, damaged %+v", destroyed, damaged)
	}
	for _, want := range []*pkt.Packet{damaged, destroyed} { // last in, first out
		if got := l.Pool.Get(); got != want {
			t.Errorf("pool handed out %p, want the released %p", got, want)
		}
	}
}
