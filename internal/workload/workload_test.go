package workload

import (
	"math"
	"testing"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

func TestDistributionsSampleInRange(t *testing.T) {
	rng := sim.NewStream(1, "dist")
	for _, d := range All {
		lo := d.points[0].Bytes
		hi := d.points[len(d.points)-1].Bytes
		for i := 0; i < 10000; i++ {
			v := float64(d.Sample(rng))
			if v < lo-1 || v > hi+1 {
				t.Fatalf("%s sample %v outside [%v, %v]", d.Name, v, lo, hi)
			}
		}
	}
}

func TestDistributionMedians(t *testing.T) {
	// Sanity-check the shapes: VL2 is small-flow dominated, DCTCP mid,
	// HADOOP large-tailed.
	rng := sim.NewStream(2, "median")
	median := func(d *Distribution) float64 {
		const n = 20001
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(d.Sample(rng))
		}
		// nth-element via simple sort-free selection is overkill; sort.
		for i := 1; i < n; i++ {
			for j := i; j > 0 && vals[j] < vals[j-1]; j-- {
				vals[j], vals[j-1] = vals[j-1], vals[j]
			}
		}
		return vals[n/2]
	}
	mVL2 := median(VL2)
	mDCTCP := median(DCTCP)
	if mVL2 > 2000 {
		t.Errorf("VL2 median %v, want < 2 kB (mice-dominated)", mVL2)
	}
	if mDCTCP < 10e3 || mDCTCP > 100e3 {
		t.Errorf("DCTCP median %v, want tens of kB", mDCTCP)
	}
}

func TestDistributionMeanMatchesEmpirical(t *testing.T) {
	rng := sim.NewStream(3, "mean")
	for _, d := range All {
		var sum float64
		const n = 300000
		for i := 0; i < n; i++ {
			sum += float64(d.Sample(rng))
		}
		emp := sum / n
		ratio := emp / d.Mean()
		// Heavy tails need slack, but the analytic mean must be the right
		// order of magnitude.
		if ratio < 0.5 || ratio > 2.0 || math.IsNaN(ratio) {
			t.Errorf("%s: empirical mean %.0f vs analytic %.0f (ratio %.2f)",
				d.Name, emp, d.Mean(), ratio)
		}
	}
}

func TestByName(t *testing.T) {
	if d, ok := ByName("CACHE"); !ok || d != CACHE {
		t.Error("ByName(CACHE) failed")
	}
	if _, ok := ByName("nope"); ok {
		t.Error("ByName(nope) succeeded")
	}
}

func TestNewDistributionValidation(t *testing.T) {
	for _, f := range []func(){
		func() { NewDistribution("x", []CDFPoint{{1, 1}}) },
		func() { NewDistribution("x", []CDFPoint{{1, 0.1}, {2, 0.5}}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid distribution accepted")
				}
			}()
			f()
		}()
	}
}

type wlNet struct {
	sim   *sim.Simulator
	fab   *dataplane.Fabric
	hosts []*host.Host
}

func newWlNet(t *testing.T) *wlNet {
	t.Helper()
	fab := dataplane.BuildFabric(topo.Testbed(), dataplane.Config{}, 5)
	return &wlNet{sim: fab.Sim, fab: fab, hosts: host.Attach(fab, nic.Config{})}
}

func TestGeneratorProducesTraffic(t *testing.T) {
	n := newWlNet(t)
	g := NewGenerator(n.sim, n.hosts[:8], n.hosts[8:], GenConfig{
		Dist: WEB, Load: 0.5, Seed: 1,
	})
	g.Start()
	n.sim.Run(2 * sim.Millisecond)
	g.Stop()
	n.sim.Run(10 * sim.Millisecond)
	if g.FlowsStarted == 0 || g.PacketsOffered == 0 {
		t.Fatalf("no traffic: %d flows %d packets", g.FlowsStarted, g.PacketsOffered)
	}
	var received uint64
	for _, h := range n.hosts[8:] {
		received += h.Received()
	}
	if received == 0 {
		t.Fatal("no packets delivered")
	}
}

func TestGeneratorApproximatesLoad(t *testing.T) {
	n := newWlNet(t)
	window := 20 * sim.Millisecond
	g := NewGenerator(n.sim, n.hosts[:4], n.hosts[16:], GenConfig{
		Dist: CACHE, Load: 0.4, Seed: 2,
	})
	g.Start()
	n.sim.Run(window)
	g.Stop()
	offeredBps := float64(g.BytesOffered*8) / window.Seconds() / 4 // per client
	target := 0.4 * 25e9
	// Heavy-tailed sizes over a short window: allow a wide band.
	if offeredBps < target/4 || offeredBps > target*4 {
		t.Errorf("offered %.2g bps per client, target %.2g", offeredBps, target)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	run := func() (uint64, uint64) {
		n := newWlNet(t)
		g := NewGenerator(n.sim, n.hosts[:8], n.hosts[8:], GenConfig{Dist: WEB, Seed: 7})
		g.Start()
		n.sim.Run(sim.Millisecond)
		g.Stop()
		return g.FlowsStarted, g.BytesOffered
	}
	f1, b1 := run()
	f2, b2 := run()
	if f1 != f2 || b1 != b2 {
		t.Errorf("non-deterministic: (%d,%d) vs (%d,%d)", f1, b1, f2, b2)
	}
}

func TestIncastCausesCongestionDrops(t *testing.T) {
	fab := dataplane.BuildFabric(topo.Testbed(), dataplane.Config{QueueLimitBytes: 64 << 10}, 5)
	s, gt := fab.Sim, fab.GT
	hosts := host.Attach(fab, nic.Config{})
	// 16 senders, 1 MB each, one receiver: must overflow its ToR queue.
	Incast(s, hosts[8:24], hosts[0], 1<<20, 1000, 0)
	s.RunAll()
	if gt.TypePackets[fevent.TypeDrop] == 0 {
		t.Fatal("incast produced no congestion drops")
	}
	if gt.TypePackets[fevent.TypeCongestion] == 0 {
		t.Fatal("incast produced no congestion ground truth")
	}
}

// TestPacedFlowKeepsOneArmedChunk: a 1 000-packet paced flow sends its
// chunk k at k·gap and never has more than its next chunk scheduled. The
// client's access link is down, so besides the flow's chunk only the NIC's
// one armed departure is ever pending.
func TestPacedFlowKeepsOneArmedChunk(t *testing.T) {
	n := newWlNet(t)
	client, server := n.hosts[0], n.hosts[8]
	n.fab.HostPorts[client.Node.ID][0].Link.SetDown(true)
	g := NewGenerator(n.sim, n.hosts[:1], n.hosts[8:9], GenConfig{Dist: WEB, Seed: 1})
	flow := pkt.FlowKey{SrcIP: client.Node.IP, DstIP: server.Node.IP, SrcPort: 1, DstPort: DataPort, Proto: pkt.ProtoTCP}
	const packets = 1000
	gap := sim.Time(float64(mss*8*chunk) / 20e9 * 1e9) // mss and the default FlowBps
	sent := func() int { tx, _, _, _ := client.NIC.Stats(); return int(tx) }

	g.pace(client, flow, packets)
	for k := 0; k < packets/chunk; k++ {
		at := sim.Time(k) * gap
		if k > 0 {
			n.sim.Run(at - 1)
			if got := sent(); got != chunk*k {
				t.Fatalf("%d packets sent by %v, want %d", got, at-1, chunk*k)
			}
		}
		n.sim.Run(at)
		if got := sent(); got != chunk*(k+1) {
			t.Fatalf("%d packets sent by %v, want %d", got, at, chunk*(k+1))
		}
		if p := n.sim.Pending(); p > 2 {
			t.Fatalf("%d events pending at %v, want the next chunk and one NIC departure at most", p, at)
		}
	}
	n.sim.RunAll()
	if got := sent(); got != packets {
		t.Fatalf("%d packets sent, want %d", got, packets)
	}
}

// TestFlowArrivalAllocatesNothing: a client's next arrival re-arms the
// closure Start bound for it, so an arrival costs no allocation of its
// own. Flows are one unpaced packet each into a down access link, whose
// losses go back to the fabric's pool for the next packet.
func TestFlowArrivalAllocatesNothing(t *testing.T) {
	n := newWlNet(t)
	for _, h := range n.hosts[:8] {
		n.fab.HostPorts[h.Node.ID][0].Link.SetDown(true)
	}
	onePacket := NewDistribution("one-packet", []CDFPoint{{1000, 0.5}, {1000, 1}})
	g := NewGenerator(n.sim, n.hosts[:8], n.hosts[8:], GenConfig{Dist: onePacket, FlowBps: -1, Seed: 3})
	g.Start()
	n.sim.Run(sim.Millisecond) // warm the pool, the NIC queues and the event free list
	before := g.FlowsStarted
	if allocs := testing.AllocsPerRun(20, func() { n.sim.Run(n.sim.Now() + 100*sim.Microsecond) }); allocs != 0 {
		t.Errorf("%v allocations per 100 µs of flow arrivals; want 0", allocs)
	}
	if g.FlowsStarted-before < 100 {
		t.Fatalf("only %d flows started while measuring", g.FlowsStarted-before)
	}
}
