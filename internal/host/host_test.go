package host

import (
	"testing"

	"netseer/internal/dataplane"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// testNet builds the 10-switch testbed with plain hosts on every node.
type testNet struct {
	sim   *sim.Simulator
	fab   *dataplane.Fabric
	hosts []*Host
}

func newTestNet(t *testing.T, swCfg dataplane.Config, ncfg nic.Config) *testNet {
	t.Helper()
	fab := dataplane.BuildFabric(topo.Testbed(), swCfg, 11)
	return &testNet{sim: fab.Sim, fab: fab, hosts: Attach(fab, ncfg)}
}

func TestUDPDeliveryAcrossFabric(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	src, dst := n.hosts[0], n.hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 1000, DstPort: 9000, Proto: pkt.ProtoUDP}
	var got int
	dst.Handle(9000, func(p *pkt.Packet) { got++ })
	src.SendUDP(flow, 50, 724, 0)
	n.sim.RunAll()
	if got != 50 {
		t.Fatalf("delivered %d of 50 packets", got)
	}
}

// TestBurstDrainsWithoutAllocating: a host's NIC builds a burst's packets
// from the fabric's pool as they depart, and the far host hands each back,
// so once the pool is warm a burst four times the pool's free list drains
// without allocating a packet.
func TestBurstDrainsWithoutAllocating(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	src, dst := n.hosts[0], n.hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 1000, DstPort: 9000, Proto: pkt.ProtoUDP}
	const packets = 4096
	var got int
	dst.Handle(9000, func(*pkt.Packet) { got++ })
	burst := func() {
		src.SendUDP(flow, packets, 724, 0)
		n.sim.RunAll()
	}
	burst() // warm the pool, the fabric's queues and the scheduler's free list
	if allocs := testing.AllocsPerRun(5, burst); allocs != 0 {
		t.Errorf("a %d-packet burst allocates %v times; want 0", packets, allocs)
	}
	if got != 7*packets { // our warm-up, AllocsPerRun's and its 5 runs
		t.Errorf("delivered %d packets, want %d", got, 7*packets)
	}
}

func TestNICSeqTagStrippedBeforeHost(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	src, dst := n.hosts[0], n.hosts[16]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 1, DstPort: 9000, Proto: pkt.ProtoUDP}
	dst.Handle(9000, func(p *pkt.Packet) {
		if p.HasSeqTag {
			t.Error("seq tag reached the host stack")
		}
		if p.WireLen != 724 {
			t.Errorf("wire length %d, want original 724", p.WireLen)
		}
	})
	src.SendUDP(flow, 3, 724, 0)
	n.sim.RunAll()
}

func TestProbeEcho(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	src, dst := n.hosts[0], n.hosts[20]
	var rtts []sim.Time
	src.OnProbeEcho(func(peer uint32, rtt sim.Time) {
		if peer != dst.Node.IP {
			t.Errorf("echo from wrong peer %v", pkt.IPString(peer))
		}
		rtts = append(rtts, rtt)
	})
	src.SendProbe(dst.Node.IP)
	n.sim.RunAll()
	if len(rtts) != 1 {
		t.Fatalf("got %d echoes, want 1", len(rtts))
	}
	if rtts[0] <= 0 || rtts[0] > sim.Millisecond {
		t.Errorf("rtt = %v, implausible", rtts[0])
	}
}

func TestEdgeLinkLossDetectedByNICs(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	src, dst := n.hosts[0], n.hosts[1] // same ToR
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP, SrcPort: 7, DstPort: 9000, Proto: pkt.ProtoUDP}
	dst.Handle(9000, func(*pkt.Packet) {})
	src.SendUDP(flow, 5, 300, 0)
	n.sim.RunAll()
	// Silently kill frames on src's access link, then resume traffic.
	at := n.fab.HostPorts[src.Node.ID][0]
	at.Link.InjectLossBurst(at.FromA, 2)
	src.SendUDP(flow, 2, 300, 0) // lost
	src.SendUDP(flow, 5, 300, 0) // reveal the gap downstream (ToR)
	n.sim.RunAll()
	// The ToR's NetSeer would report these; without NetSeer the NIC logs
	// nothing here (loss is toward the switch). Now kill the reverse
	// direction: dst→... use dst as sender.
	flowBack := flow.Reverse()
	src.Handle(7, func(*pkt.Packet) {})
	dst.SendUDP(flowBack, 5, 300, 0)
	n.sim.RunAll()
	atDst := n.fab.HostPorts[src.Node.ID][0]
	// Loss on the ToR→src direction: the src NIC detects the gap, the ToR
	// (upstream) would recover flows. Here both ends are NICs only on the
	// host side, so check the NIC's gap counter via a direct pair below.
	_ = atDst
	_, _, _, gaps := src.NIC.Stats()
	_ = gaps // fabric side handles this; detailed NIC log test below
}

func TestNICRecoversLossViaLog(t *testing.T) {
	// Two NICs on one raw link: loss toward B is detected by B's tracker
	// and recovered from A's ring into A's local log.
	s := sim.New()
	rng := sim.NewStream(1, "nic-test")
	var aNIC, bNIC *nic.NIC
	l := link.New(s, link.Endpoint{Dev: &deferredDev{&aNIC}, Port: 0},
		link.Endpoint{Dev: &deferredDev{&bNIC}, Port: 0}, sim.Microsecond, rng)
	aNIC = nic.New(s, l, true, nic.Config{}, nil, func(*pkt.Packet) {})
	bNIC = nic.New(s, l, false, nic.Config{}, nil, func(*pkt.Packet) {})
	flow := pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoUDP}
	mk := func(id uint64) *pkt.Packet {
		return &pkt.Packet{ID: id, Kind: pkt.KindData, Flow: flow, WireLen: 300, TTL: 64}
	}
	for i := 0; i < 3; i++ {
		aNIC.Send(mk(uint64(i)))
	}
	s.RunAll()
	l.InjectLossBurst(true, 2)
	aNIC.Send(mk(10))
	aNIC.Send(mk(11))
	for i := 0; i < 3; i++ {
		aNIC.Send(mk(uint64(20 + i)))
	}
	s.RunAll()
	if len(aNIC.Log) != 2 {
		t.Fatalf("NIC log has %d events, want 2", len(aNIC.Log))
	}
	for _, e := range aNIC.Log {
		if e.Flow != flow {
			t.Errorf("log attributed wrong flow %v", e.Flow)
		}
	}
}

type deferredDev struct{ n **nic.NIC }

func (d *deferredDev) Receive(p *pkt.Packet, port int) {
	if *d.n != nil {
		(*d.n).Receive(p, port)
	}
}

func TestConnReliableDelivery(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[0], n.hosts[31]
	var gotSegs int
	srv.Accept(cli.Node.IP, 5000, 4000, ConnConfig{}, func(seq, size int) { gotSegs++ })
	c := cli.Dial(srv.Node.IP, 4000, 5000, ConnConfig{})
	c.Send(100 * 1400) // 100 segments
	n.sim.RunAll()
	if gotSegs != 100 {
		t.Fatalf("delivered %d of 100 segments", gotSegs)
	}
	if !c.Idle() {
		t.Error("sender not idle after full delivery")
	}
	if c.Retransmits != 0 {
		t.Errorf("unexpected retransmits on a clean path: %d", c.Retransmits)
	}
}

func TestConnRetransmitsThroughLoss(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[0], n.hosts[31]
	var gotSegs int
	srv.Accept(cli.Node.IP, 5000, 4000, ConnConfig{RTO: 100 * sim.Microsecond}, func(seq, size int) { gotSegs++ })
	c := cli.Dial(srv.Node.IP, 4000, 5000, ConnConfig{RTO: 100 * sim.Microsecond})
	// 10% loss on the client's access link.
	at := n.fab.HostPorts[cli.Node.ID][0]
	at.Link.SetFault(at.FromA, link.Fault{SilentLossProb: 0.1})
	c.Send(200 * 1400)
	n.sim.Run(2 * sim.Second)
	if gotSegs != 200 {
		t.Fatalf("delivered %d of 200 segments through loss", gotSegs)
	}
	if c.Retransmits == 0 {
		t.Error("no retransmissions despite 10%% loss")
	}
}

func TestRPCLatencyBaseline(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[0], n.hosts[31]
	r := NewRPC(cli, srv, RPCConfig{})
	for i := 0; i < 5; i++ {
		r.Call()
		n.sim.RunAll()
	}
	if len(r.Latencies) != 5 {
		t.Fatalf("completed %d of 5 calls", len(r.Latencies))
	}
	for _, lat := range r.Latencies {
		if lat <= 0 || lat > 10*sim.Millisecond {
			t.Errorf("latency %v implausible for an idle fabric", lat)
		}
	}
	if r.Retransmits() != 0 {
		t.Errorf("retransmits on idle fabric: %d", r.Retransmits())
	}
}

func TestRPCLatencySpikesUnderLoss(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[0], n.hosts[31]
	r := NewRPC(cli, srv, RPCConfig{Conn: ConnConfig{RTO: 500 * sim.Microsecond}})
	r.Call()
	n.sim.RunAll()
	clean := r.Latencies[0]
	// Now 30% loss on the server's access link (responses suffer).
	at := n.fab.HostPorts[srv.Node.ID][0]
	at.Link.SetFault(at.FromA, link.Fault{SilentLossProb: 0.3})
	r.Call()
	n.sim.Run(5 * sim.Second)
	if len(r.Latencies) != 2 {
		t.Fatalf("lossy call did not complete: %d", len(r.Latencies))
	}
	if r.Latencies[1] <= clean {
		t.Errorf("lossy latency %v not above clean %v", r.Latencies[1], clean)
	}
	if r.Retransmits() == 0 {
		t.Error("no retransmits under 30% loss")
	}
}

func TestRPCLoopClosedLoop(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[2], n.hosts[20]
	r := NewRPC(cli, srv, RPCConfig{RespBytes: 8 << 10})
	r.Loop(100 * sim.Microsecond)
	n.sim.Run(20 * sim.Millisecond)
	if len(r.Latencies) < 10 {
		t.Fatalf("closed loop completed only %d calls in 20 ms", len(r.Latencies))
	}
}

func TestRPCProcessingDelayInjection(t *testing.T) {
	n := newTestNet(t, dataplane.Config{}, nic.Config{})
	cli, srv := n.hosts[0], n.hosts[31]
	stall := sim.Time(0)
	r := NewRPC(cli, srv, RPCConfig{
		Processing: func() sim.Time { return stall },
	})
	r.Call()
	n.sim.RunAll()
	base := r.Latencies[0]
	stall = 5 * sim.Millisecond // the SSD-firmware-style app stall
	r.Call()
	n.sim.RunAll()
	if got := r.Latencies[1]; got < base+4*sim.Millisecond {
		t.Errorf("stalled latency %v, want >= %v", got, base+4*sim.Millisecond)
	}
}
