// Storage-fault chaos for the fabric: a shard's disk dies at the worst
// moments — mid-rebalance-handoff on the destination, and mid-ingest on
// a live member — and the fabric must neither lose an acked event nor
// hide the failure. The handoff case aborts cleanly (the source retains
// every event, the exactly-once audit stays green); the member case
// must surface as unhealthy on the coordinator's /fleet plane within
// one probe interval.
package fabric_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// startFaultShard starts a shard whose WAL lives on a fault-injected
// filesystem (default sync mode — the faults target real fsyncs).
func startFaultShard(t *testing.T, id uint32, dir string, fs faultfs.FS) *fabric.ShardNode {
	t.Helper()
	n, err := fabric.StartShard(fabric.ShardOptions{
		ID: id, Dir: dir,
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
		WAL: wal.Options{FS: fs},
	})
	if err != nil {
		t.Fatalf("start fault shard %d: %v", id, err)
	}
	return n
}

// TestStorageFaultMidRebalanceHandoff kills the destination's disk at
// the exact point the handoff import must go durable: its first fsync —
// the one gating the import commit — fails. The rebalance must abort,
// the source must retain every event (no fence without a durable
// import), and the exactly-once audit over the unchanged ring must stay
// green.
func TestStorageFaultMidRebalanceHandoff(t *testing.T) {
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()
	b := startShard(t, 2, filepath.Join(base, "s2"))
	defer b.Close()
	coord := startCoordinator(t, filepath.Join(base, "coord.json"),
		[]fabric.ShardInfo{a.Info(), b.Info()}, 3*time.Second)
	defer coord.Close()
	cfg1 := coord.Config()

	r := fabric.NewRouter(cfg1, collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()
	ls := &loadState{}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				ls.deliver(r, 5, 6)
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()

	// The joining shard's disk fails its very first fsync — which is the
	// group commit behind the import's durable commit record.
	time.Sleep(50 * time.Millisecond)
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 9, FailSyncAt: 1})
	c := startFaultShard(t, 3, filepath.Join(base, "s3"), fault)
	defer c.Close()
	if _, err := coord.Join(c.Info()); err == nil {
		t.Fatal("join succeeded although the destination could not make the import durable")
	} else if !strings.Contains(err.Error(), "import") {
		t.Fatalf("join failed for the wrong reason: %v", err)
	}
	waitResolved(t, coord, 10*time.Second)
	if got := coord.Config().Epoch; got != cfg1.Epoch {
		t.Fatalf("aborted rebalance published epoch %d, want %d unchanged", got, cfg1.Epoch)
	}

	close(stop)
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	// The ring never changed: the sources must still hold everything,
	// exactly once.
	res := audit(t, ls, cfg1)
	if res.ShardsOK != 2 {
		t.Fatalf("fan-out reached %d/2 source shards", res.ShardsOK)
	}
	// The destination fail-stopped rather than pretending: its WAL is
	// poisoned and its health surface says so.
	if err := c.Healthz(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("destination Healthz() = %v, want the EIO poison", err)
	}
}

// TestStorageFaultMemberVisibleInFleet poisons a live member's WAL
// mid-ingest and asserts the coordinator's /fleet plane flags the shard
// unhealthy — with the durability error spelled out — on its next probe.
func TestStorageFaultMemberVisibleInFleet(t *testing.T) {
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 10, FailSyncAt: 1})
	b := startFaultShard(t, 2, filepath.Join(base, "s2"), fault)
	defer b.Close()
	coord := startCoordinator(t, filepath.Join(base, "coord.json"),
		[]fabric.ShardInfo{a.Info(), b.Info()}, 3*time.Second)
	defer coord.Close()

	if rep := coord.FleetStatus(2 * time.Second); !rep.Healthy {
		t.Fatalf("fleet unhealthy before any fault: %+v", rep)
	}

	// One durable batch against the doomed shard trips its first fsync.
	cl := collector.NewClientConfig(b.IngestAddr(), collector.ClientConfig{
		BackoffMin: 2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
		FlushTimeout: 500 * time.Millisecond, CloseTimeout: 200 * time.Millisecond,
	})
	cl.Deliver(&fevent.Batch{SwitchID: 2, Timestamp: sim.Time(1),
		Events: []fevent.Event{eventN(1, 2, sim.Time(1))}})
	cl.Flush() // fails: the ack can never come
	cl.Close()

	deadline := time.Now().Add(10 * time.Second)
	for {
		rep := coord.FleetStatus(2 * time.Second)
		var row *fabric.FleetShard
		for i := range rep.Shards {
			if rep.Shards[i].ID == 2 {
				row = &rep.Shards[i]
			}
		}
		if row != nil && row.Alive && row.Health != nil &&
			row.Health.Durability != "ok" && row.Health.Durability != "" {
			if rep.Healthy {
				t.Fatalf("shard 2 durability=%q but fleet still Healthy", row.Health.Durability)
			}
			if !strings.Contains(row.Health.Durability, "input/output error") {
				t.Fatalf("durability %q does not carry the EIO cause", row.Health.Durability)
			}
			if row.Health.Admission != "durability-failed" {
				t.Fatalf("admission = %q, want durability-failed", row.Health.Admission)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never flagged the poisoned shard: %+v", rep)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestShardRestartReportsReplayGap: a shard restarted over a log whose
// middle segment rotted reports the lost segment as a replay gap, as a
// standalone collector does, and still once the scrubber has quarantined
// it.
func TestShardRestartReportsReplayGap(t *testing.T) {
	dir := t.TempDir()
	opts := fabric.ShardOptions{ID: 1, Dir: dir, WAL: wal.Options{SegmentBytes: 2 << 10},
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0"}
	n, err := fabric.StartShard(opts)
	if err != nil {
		t.Fatal(err)
	}
	const total = 150
	cl := collector.NewClientConfig(n.IngestAddr(), collector.ClientConfig{MaxQueue: total})
	for i := 0; i < total; i++ {
		cl.Deliver(&fevent.Batch{SwitchID: 5, Timestamp: sim.Time(i + 1), Events: []fevent.Event{eventN(i, 5, sim.Time(i+1))}})
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	n.Close()

	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments for a mid-log rot, got %v", segs)
	}
	slices.Sort(segs)
	victim := segs[len(segs)/2]
	st, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipByte(victim, st.Size()/2); err != nil {
		t.Fatal(err)
	}
	for _, quarantined := range []bool{false, true} {
		if n, err = fabric.StartShard(opts); err != nil {
			t.Fatal(err)
		}
		gaps := n.Replay().Gaps
		if len(gaps) != 1 || !strings.HasPrefix(gaps[0], filepath.Base(victim)) || strings.Contains(gaps[0], "quarantined") != quarantined {
			t.Fatalf("restart (quarantined %v): replay gaps %q, want one for %s", quarantined, gaps, filepath.Base(victim))
		}
		if got := n.Store().Len(); got >= total || got == 0 {
			t.Fatalf("restart (quarantined %v): %d of %d events recovered", quarantined, got, total)
		}
		if !quarantined {
			if rep, err := n.ScrubWAL(); err != nil || len(rep.Quarantined) != 1 {
				t.Fatalf("scrub: %v, %v", rep.Quarantined, err)
			}
		}
		n.Close()
	}
}
