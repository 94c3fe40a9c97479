package experiments

import (
	"testing"

	"netseer/internal/sim"
)

// shardedBaseConfig is the scenario the equivalence tests run: a full
// K=4 fat-tree (20 switches, 16 hosts) under load with silent link loss,
// so inter-switch detection, fault RNG and cross-shard trafic are all
// exercised.
func shardedBaseConfig(seed uint64) ShardedConfig {
	return ShardedConfig{
		Window:       sim.Millisecond,
		Seed:         seed,
		Load:         0.7,
		LinkLossProb: 0.01,
	}
}

// TestShardedMatchesSequential: the per-switch sharded engine must export
// a byte-identical event stream to the sequential engine (Shards=1 runs
// the very same harness on a single event loop), at every worker count.
// The digests themselves are pinned too: a scheduler or barrier-sort
// change that reordered both engines alike would pass the equality alone.
func TestShardedMatchesSequential(t *testing.T) {
	pinned := map[uint64]uint64{1: 0x7ec229bb2a301c72, 7: 0x97219f54895b62ad}
	for _, seed := range []uint64{1, 7} {
		cfg := shardedBaseConfig(seed)
		cfg.Shards = 1
		seq := NewShardedTestbed(cfg)
		seq.Run()
		want := seq.Digest()
		if want != pinned[seed] {
			t.Errorf("seed %d: sequential digest %016x, pinned %016x", seed, want, pinned[seed])
		}
		if n := seq.ExportedEvents(); n == 0 {
			t.Fatalf("seed %d: sequential run exported no events — digest check is vacuous", seed)
		}
		if st := seq.Stats(); st.SeqGapsDetected == 0 {
			t.Errorf("seed %d: no seq gaps detected despite link loss — fault path unexercised", seed)
		}
		for _, workers := range []int{1, 2, 4} {
			cfg := shardedBaseConfig(seed)
			cfg.Workers = workers
			sh := NewShardedTestbed(cfg)
			sh.Run()
			if got := sh.Digest(); got != want {
				t.Errorf("seed %d workers %d: sharded digest %016x != sequential %016x",
					seed, workers, got, want)
			}
		}
	}
}

// TestShardedMatchesSequentialAcrossLinkFaultBurst: a deterministic loss
// burst on the agg→core link destroys a run of consecutive frames
// mid-flight, splitting same-instant packet fronts at the receiving
// switch (some slots of a coalesced burst never arrive). The split must
// not perturb equivalence: sharded and sequential digests stay
// byte-identical, and the downstream switch detects the gap.
func TestShardedMatchesSequentialAcrossLinkFaultBurst(t *testing.T) {
	run := func(shards, workers int) *ShardedTestbed {
		cfg := shardedBaseConfig(5)
		cfg.LinkLossProb = 0 // only the injected burst drops frames
		cfg.Shards = shards
		cfg.Workers = workers
		tb := NewShardedTestbed(cfg)
		l := tb.Fab.LinkBetween("agg0-0", "core0")
		if l == nil {
			t.Fatal("no agg0-0/core0 link")
		}
		// Find which link endpoint is agg0-0, so the injection hits the
		// agg→core direction and runs on the transmitter's shard.
		agg, _ := tb.Topo.NodeByName("agg0-0")
		core, _ := tb.Topo.NodeByName("core0")
		fromAgg := false
		for _, tl := range tb.Topo.Links() {
			if tl.A == agg.ID && tl.B == core.ID {
				fromAgg = true
			}
		}
		// Mid-run injection (not at t=0: the receiver needs frames before
		// the gap to have a sequence baseline). Scheduled pre-run onto the
		// transmitting switch's own event loop, so the fault state is only
		// ever touched by the shard that reads it.
		tb.Fab.ShardOf(agg.ID).Sim().At(cfg.Window/2, func() {
			l.InjectLossBurst(fromAgg, 40)
		})
		tb.Run()
		return tb
	}
	seq := run(1, 1)
	if n := seq.ExportedEvents(); n == 0 {
		t.Fatal("sequential run exported no events — digest check is vacuous")
	}
	if st := seq.Stats(); st.SeqGapsDetected == 0 {
		t.Error("loss burst left no detected seq gaps — the split path is unexercised")
	}
	want := seq.Digest()
	for _, workers := range []int{1, 4} {
		sh := run(0, workers)
		if got := sh.Digest(); got != want {
			t.Errorf("workers %d: digest %016x != sequential %016x after link-fault burst",
				workers, got, want)
		}
	}
}

// TestShardedDeterministicAcrossRuns: two sharded runs of the same config
// must match each other exactly (determinism independent of goroutine
// scheduling).
func TestShardedDeterministicAcrossRuns(t *testing.T) {
	cfg := shardedBaseConfig(3)
	cfg.Workers = 4
	a := NewShardedTestbed(cfg)
	a.Run()
	b := NewShardedTestbed(cfg)
	b.Run()
	if da, db := a.Digest(), b.Digest(); da != db {
		t.Errorf("sharded run digests differ: %016x vs %016x", da, db)
	}
	if a.Engine.Exchanged() == 0 {
		t.Error("no cross-shard messages exchanged — sharding is vacuous")
	}
}
