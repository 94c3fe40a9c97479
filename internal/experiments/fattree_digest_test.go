package experiments

import (
	"testing"

	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/host"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// TestFatTreeDigestPinned pins the exported event stream of a full K=4
// fat-tree (20 switches, 16 hosts, a quarter of them clients) under WEB
// load at 0.70 for 1 ms, with a fault on the agg0-0↔core0 link so
// inter-switch detection and the per-direction fault streams are
// exercised. The golden digests elsewhere are all of the 10-switch
// testbed; this is the only pin on a fat-tree's event order.
func TestFatTreeDigestPinned(t *testing.T) {
	const window = sim.Millisecond
	for _, tc := range []struct {
		name   string
		seed   uint64
		loss   float64 // static silent loss, both directions
		burst  int     // frames destroyed agg→core at window/2
		digest uint64
		events int // exported event count, where pinned
	}{
		{name: "static-loss-seed1", seed: 1, loss: 0.01, digest: 0x187d904dae69e70b},
		{name: "static-loss-seed7", seed: 7, loss: 0.01, digest: 0xac7f898e0f5a1570},
		{name: "loss-burst-seed5", seed: 5, burst: 40, digest: 0xe61343e17147a911, events: 574},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tp := topo.FatTree(topo.FatTreeConfig{K: 4})
			swCfg := dataplane.Config{CongestionThreshold: 10 * sim.Microsecond}
			fab := dataplane.BuildFabric(tp, swCfg, tc.seed)
			s := fab.Sim
			hosts := host.Attach(fab, nic.Config{})
			store := collector.NewStore()
			netseers := core.Deploy(fab, core.Config{}, store)

			l := fab.LinkBetween("agg0-0", "core0")
			if l == nil {
				t.Fatal("no agg0-0/core0 link")
			}
			if tc.loss > 0 {
				l.SetFault(true, link.Fault{SilentLossProb: tc.loss})
				l.SetFault(false, link.Fault{SilentLossProb: tc.loss})
			}
			if tc.burst > 0 {
				agg, _ := tp.NodeByName("agg0-0")
				fromA := false
				for _, tl := range tp.Links() {
					if tl.A == agg.ID && fab.Links[tl.Index] == l {
						fromA = true
					}
				}
				// Mid-run, so the receiver has a sequence baseline before
				// the gap; the burst splits same-instant fronts at core0.
				s.At(window/2, func() { l.InjectLossBurst(fromA, tc.burst) })
			}

			clients := len(hosts) / 4
			gen := workload.NewGenerator(s, hosts[:clients], hosts[clients:], workload.GenConfig{
				Dist: workload.WEB, Load: 0.70, FanIn: 4, Seed: tc.seed,
			})
			gen.Start()
			s.Run(window)
			gen.Stop()
			core.Drain(s, netseers)

			if got := CanonicalDigest(store); got != tc.digest {
				t.Errorf("digest %016x, pinned %016x", got, tc.digest)
			}
			if n := store.Count(collector.Filter{}); n == 0 {
				t.Error("no events exported: the digest check is vacuous")
			} else if tc.events != 0 && n != tc.events {
				t.Errorf("%d events exported, pinned %d", n, tc.events)
			}
			var gaps uint64
			for _, ns := range netseers {
				gaps += ns.Stats().SeqGapsDetected
			}
			if gaps == 0 {
				t.Error("no sequence gaps detected: the link fault path is unexercised")
			}
		})
	}
}
