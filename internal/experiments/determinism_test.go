package experiments

import (
	"fmt"
	"hash/fnv"
	"sort"
	"testing"

	"netseer/internal/collector"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// TestEndToEndDeterminism: two runs with the same seed must produce
// byte-identical event streams — the property every debugging session
// relies on.
func TestEndToEndDeterminism(t *testing.T) {
	run := func() []string {
		cfg := RunConfig{
			Dist: workload.CACHE, Load: 0.6, Window: 2 * sim.Millisecond, Seed: 99,
			NetSeer: true, InjectLinkLoss: true, InjectPipelineBug: true,
		}
		tb := NewTestbed(cfg)
		tb.Run()
		var lines []string
		for _, e := range tb.Store.Query(collector.Filter{}) {
			lines = append(lines, fmt.Sprintf("%v@%d", e.String(), e.Timestamp))
		}
		sort.Strings(lines)
		return lines
	}
	a, b := run(), run()
	if len(a) == 0 {
		t.Fatal("no events produced")
	}
	if len(a) != len(b) {
		t.Fatalf("event counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs:\n %s\n %s", i, a[i], b[i])
		}
	}
}

// TestParallelMatchesSequential: the worker pool must never change
// results. For two seeds and two figures, the rendered tables produced
// with SetParallelism(4) must be byte-identical to SetParallelism(1),
// and each point's store-order digest must match point-for-point.
func TestParallelMatchesSequential(t *testing.T) {
	prev := Parallelism()
	defer SetParallelism(prev)

	dists := []*workload.Distribution{workload.WEB, workload.CACHE}
	for _, seed := range []uint64{42, 99} {
		base := RunConfig{Load: 0.6, Window: 2 * sim.Millisecond, Seed: seed}

		render := func() (fig10, fig11 string) {
			fig10 = CoverageTable("Fig 10", ClassCongestion, Fig10CongestionCoverage(base, dists)).String()
			fig11 = Fig11Table(Fig11BandwidthOverhead(base, dists)).String()
			return
		}
		SetParallelism(1)
		seq10, seq11 := render()
		SetParallelism(4)
		par10, par11 := render()
		if par10 != seq10 {
			t.Errorf("seed %d: Fig 10 table differs under parallelism:\n--- sequential ---\n%s\n--- parallel ---\n%s", seed, seq10, par10)
		}
		if par11 != seq11 {
			t.Errorf("seed %d: Fig 11 table differs under parallelism:\n--- sequential ---\n%s\n--- parallel ---\n%s", seed, seq11, par11)
		}

		pts := []RunConfig{
			{Dist: workload.WEB, Load: 0.6, Window: 2 * sim.Millisecond, Seed: seed,
				NetSeer: true, InjectLinkLoss: true},
			{Dist: workload.CACHE, Load: 0.6, Window: 2 * sim.Millisecond, Seed: seed,
				NetSeer: true, InjectPipelineBug: true},
		}
		SetParallelism(1)
		seqPts := storeOrderDigests(pts)
		SetParallelism(4)
		parPts := storeOrderDigests(pts)
		for i := range seqPts {
			if seqPts[i].exported == 0 {
				t.Errorf("seed %d point %d: no events exported — digest check is vacuous", seed, i)
			}
			if seqPts[i].digest != parPts[i].digest {
				t.Errorf("seed %d point %d (%s): digest %016x (parallel) != %016x (sequential)",
					seed, i, pts[i], parPts[i].digest, seqPts[i].digest)
			}
		}
	}
}

// pointDigest is one run's exported-event count and an FNV-64a hash over
// its exported event stream in store order: unlike CanonicalDigest it
// also pins the order the store ingested the events in.
type pointDigest struct {
	exported, digest uint64
}

// storeOrderDigests runs each config through the worker pool and digests
// its store.
func storeOrderDigests(cfgs []RunConfig) []pointDigest {
	return parallelMap(len(cfgs), func(i int) pointDigest {
		tb := NewTestbed(cfgs[i])
		tb.Run()
		h := fnv.New64a()
		for _, e := range tb.Store.Query(collector.Filter{}) {
			fmt.Fprintf(h, "%s@%d\n", e.String(), e.Timestamp)
		}
		return pointDigest{exported: tb.NetSeerStats().ExportedEvents, digest: h.Sum64()}
	})
}

// TestSeedSensitivity: different seeds must actually change the run
// (guards against a seed being silently ignored somewhere).
func TestSeedSensitivity(t *testing.T) {
	counts := func(seed uint64) int {
		cfg := RunConfig{
			Dist: workload.CACHE, Load: 0.6, Window: 2 * sim.Millisecond, Seed: seed,
			NetSeer: true,
		}
		tb := NewTestbed(cfg)
		tb.Run()
		return int(tb.Gen.PacketsOffered)
	}
	if counts(1) == counts(2) {
		t.Error("different seeds produced identical packet counts — seed plumbing broken")
	}
}

// TestPathReconstruction: the collector's PathOf reassembles a flow's
// switch-level path from path-change events.
func TestPathReconstruction(t *testing.T) {
	cfg := RunConfig{
		Dist: workload.WEB, Load: 0.3, Window: sim.Millisecond, Seed: 5, NetSeer: true,
	}
	tb := NewTestbed(cfg)
	// One explicit cross-pod flow.
	src, dst := tb.Hosts[0], tb.Hosts[31]
	flow := pkt.FlowKey{SrcIP: src.Node.IP, DstIP: dst.Node.IP,
		SrcPort: 3131, DstPort: workload.DataPort, Proto: pkt.ProtoTCP}
	src.SendUDP(flow, 20, 724, 0)
	tb.Run()
	hops := tb.Store.PathOf(flow)
	// Cross-pod path: edge, agg, core, agg, edge = 5 switches.
	if len(hops) != 5 {
		t.Fatalf("reconstructed %d hops, want 5: %+v", len(hops), hops)
	}
	// Hops are time-ordered; the first must be the source ToR.
	srcTor := tb.Fab.HostPorts[src.Node.ID][0].Switch
	if hops[0].SwitchID != srcTor.ID {
		t.Errorf("first hop switch %d, want source ToR %d", hops[0].SwitchID, srcTor.ID)
	}
	for i := 1; i < len(hops); i++ {
		if hops[i].At < hops[i-1].At {
			t.Errorf("hops out of time order: %+v", hops)
		}
	}
}

// TestFig9MultiSeedRobustness: NetSeer's full coverage must not be a
// single lucky seed.
func TestFig9MultiSeedRobustness(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed sweep")
	}
	for _, seed := range []uint64{7, 101, 20260704} {
		cfg := smallRun()
		cfg.Seed = seed
		r := Fig9EventCoverage(cfg)
		for _, class := range Fig9Classes {
			if r.TruthCount[class] == 0 {
				t.Errorf("seed %d: no truth for %s", seed, class)
				continue
			}
			ns := r.Ratio[class]["netseer"]
			min := 0.999
			// Capacity-bounded classes (§4): ring recovery and the 40 Gb/s
			// MMU-redirect budget make near-full the honest claim.
			if class == ClassInterSwitch || class == ClassMMUDrop {
				min = 0.90
			}
			if ns < min {
				t.Errorf("seed %d: netseer %s coverage %.3f < %.3f", seed, class, ns, min)
			}
		}
	}
}

// TestRecyclingMatchesCheckedPool: the fabric's packet pool must not
// change a run. Under a checking pool, which never reuses a packet and
// poisons every released one, the testbed with every fault injected must
// export the same events and see the same packets as under the recycling
// pool; a packet read after its release would read poison in one run
// and another packet's state in the other.
func TestRecyclingMatchesCheckedPool(t *testing.T) {
	run := func(checked bool) (uint64, uint64) {
		tb := NewTestbed(RunConfig{
			Dist: workload.WEB, Load: 0.70, Window: 2 * sim.Millisecond, NetSeer: true, Seed: 1,
			InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
		})
		if checked {
			tb.Fab.Pool.Check()
		}
		tb.Run()
		return CanonicalDigest(tb.Store), tb.NetSeerStats().RawPackets
	}
	digest, pkts := run(false)
	checkedDigest, checkedPkts := run(true)
	if pkts == 0 {
		t.Fatal("no packets: the comparison is vacuous")
	}
	if digest != checkedDigest || pkts != checkedPkts {
		t.Errorf("recycling pool: digest %016x over %d packets; checking pool: %016x over %d",
			digest, pkts, checkedDigest, checkedPkts)
	}
}
