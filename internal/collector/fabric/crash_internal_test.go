// Crash-window tests for the rebalance machinery, from inside the
// package: they drive the admin protocol directly, restart shards from
// their WAL directories with a transfer open, and hand-author the
// coordinator's durable two-phase record in both phases to prove the
// restart resolution — "staging" aborts, "publish" completes — lands in
// exactly one side of the cutover.
package fabric

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func startNode(t *testing.T, id uint32, dir string) *ShardNode {
	t.Helper()
	n, err := StartShard(ShardOptions{
		ID: id, Dir: dir,
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("start shard %d: %v", id, err)
	}
	return n
}

// ingestTestLoad delivers n uniquely identified events to a shard over
// the real wire protocol, per to a batch, and returns them as the
// reference.
func ingestTestLoad(t *testing.T, addr string, n, per int) []fevent.Event {
	t.Helper()
	cl := collector.NewClientConfig(addr, collector.ClientConfig{MaxQueue: n/per + 1})
	var ref []fevent.Event
	for b := 0; b*per < n; b++ {
		sw := uint16(b%3 + 1)
		ts := sim.Time(100 + b)
		evs := make([]fevent.Event, 0, per)
		for i := b * per; i < (b+1)*per && i < n; i++ {
			f := pkt.FlowKey{SrcIP: pkt.IP(10, 9, byte(i>>8), byte(i)), DstIP: pkt.IP(10, 0, 0, 9),
				SrcPort: uint16(i), DstPort: 53, Proto: 17}
			evs = append(evs, fevent.Event{
				Type: fevent.TypeDrop, DropCode: fevent.DropTTLExpired, Flow: f, Hash: f.Hash(),
				SwitchID: sw, Timestamp: ts, Count: 1,
			})
		}
		cl.Deliver(&fevent.Batch{SwitchID: sw, Timestamp: ts, Events: evs})
		ref = append(ref, evs...)
	}
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush load: %v", err)
	}
	cl.Close()
	return ref
}

func multisetOf(evs []fevent.Event) map[fevent.Event]int {
	m := make(map[fevent.Event]int)
	for _, e := range evs {
		m[e]++
	}
	return m
}

func assertSameMultiset(t *testing.T, what string, want, got []fevent.Event) {
	t.Helper()
	w, g := multisetOf(want), multisetOf(got)
	if len(w) != len(g) {
		t.Fatalf("%s: %d distinct identities, want %d", what, len(g), len(w))
	}
	for k, n := range w {
		if g[k] != n {
			t.Fatalf("%s: identity %v stored %d times, want %d", what, &k, g[k], n)
		}
	}
}

// stageHandoff runs mark on the source and import on the destination —
// the staged-but-unpublished state every crash test starts from.
func stageHandoff(t *testing.T, src, dst *ShardNode, rb, mask uint64) {
	t.Helper()
	mresp, err := adminCall(src.AdminAddr(), &adminReq{Op: "mark", RB: rb, Mask: mask}, 5*time.Second)
	if err != nil {
		t.Fatalf("mark: %v", err)
	}
	// Marks are idempotent: a coordinator retry re-serves the same capture.
	again, err := adminCall(src.AdminAddr(), &adminReq{Op: "mark", RB: rb, Mask: mask}, 5*time.Second)
	if err != nil {
		t.Fatalf("re-mark: %v", err)
	}
	if again.Events != mresp.Events {
		t.Fatal("re-marking an open transfer changed its capture")
	}
	if _, err := adminCall(dst.AdminAddr(), &adminReq{
		Op: "import", RB: rb, Events: mresp.Events, Seen: mresp.Seen,
	}, 5*time.Second); err != nil {
		t.Fatalf("import: %v", err)
	}
	// Imports too: the retry after a lost ack must not double-apply.
	if _, err := adminCall(dst.AdminAddr(), &adminReq{
		Op: "import", RB: rb, Events: mresp.Events, Seen: mresp.Seen,
	}, 5*time.Second); err != nil {
		t.Fatalf("re-import: %v", err)
	}
}

// restartBoth closes and reopens two shards from their directories.
func restartBoth(t *testing.T, a, b *ShardNode, dirA, dirB string) (*ShardNode, *ShardNode) {
	t.Helper()
	a.Close()
	b.Close()
	return startNode(t, a.ID, dirA), startNode(t, b.ID, dirB)
}

func writeCoordState(t *testing.T, path string, st coordState) {
	t.Helper()
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func awaitResolved(t *testing.T, c *Coordinator) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !c.Resolved() {
		if time.Now().After(deadline) {
			t.Fatal("pending rebalance never resolved")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLargeTransferSurvivesRestart: a transfer whose events fill more
// than one WAL chunk is split at a byte count, not at an event, so
// recovery must join its chunks before decoding them. Both sides of a
// staged handoff restart with the transfer open and every event stored.
func TestLargeTransferSurvivesRestart(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	a, b := startNode(t, 1, dirA), startNode(t, 2, dirB)

	ref := ingestTestLoad(t, a.IngestAddr(), 12000, 50)
	if n := len(captureSlots(a.Store(), ^uint64(0))); n <= importChunkBytes {
		t.Fatalf("the capture is %d B, one chunk of %d", n, importChunkBytes)
	}
	rb := uint64(2)<<16 | 0
	stageHandoff(t, a, b, rb, ^uint64(0))

	a, b = restartBoth(t, a, b, dirA, dirB)
	defer a.Close()
	defer b.Close()
	for _, n := range []*ShardNode{a, b} {
		if got := n.OpenTransfers(); len(got) != 1 || got[0] != rb {
			t.Fatalf("shard %d recovered transfers %v, want [%#x]", n.ID, got, rb)
		}
		assertSameMultiset(t, fmt.Sprintf("shard %d after restart", n.ID), ref, n.Store().Query(collector.Filter{}))
	}
}

// TestHandoffSurvivesRestartThenCompletes: stage a full handoff, crash
// both shards, and let a coordinator that went down after its cutover
// decision ("publish") finish the rebalance against the recovered nodes.
func TestHandoffSurvivesRestartThenCompletes(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	a, b := startNode(t, 1, dirA), startNode(t, 2, dirB)

	ref := ingestTestLoad(t, a.IngestAddr(), 60, 4)
	rb := uint64(2)<<16 | 0
	mask := ^uint64(0)
	stageHandoff(t, a, b, rb, mask)

	a, b = restartBoth(t, a, b, dirA, dirB)
	defer a.Close()
	defer b.Close()

	// Both sides recovered the open transfer from their WALs.
	if got := a.OpenTransfers(); len(got) != 1 || got[0] != rb {
		t.Fatalf("source recovered transfers %v, want [%#x]", got, rb)
	}
	if got := b.OpenTransfers(); len(got) != 1 || got[0] != rb {
		t.Fatalf("destination recovered transfers %v, want [%#x]", got, rb)
	}
	assertSameMultiset(t, "source after restart", ref, a.Store().Query(collector.Filter{}))
	assertSameMultiset(t, "destination after restart", ref, b.Store().Query(collector.Filter{}))

	// A checkpoint must refuse while the transfer is open: truncating the
	// mark would orphan the fence.
	if err := a.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a transfer open")
	}

	cur := Config{Epoch: 1, Shards: []ShardInfo{a.Info(), b.Info()}}
	for s := range cur.Slots {
		cur.Slots[s] = 1
	}
	target := Config{Epoch: 2, Shards: []ShardInfo{a.Info(), b.Info()}}
	for s := range target.Slots {
		target.Slots[s] = 2
	}
	statePath := filepath.Join(base, "coord.json")
	writeCoordState(t, statePath, coordState{
		Current: cur,
		Pending: &pendingRebalance{
			Phase:  "publish",
			Target: target,
			Transfers: []transfer{
				{RB: rb, Source: 1, Dest: 2, Mask: mask},
			},
		},
	})
	coord, err := StartCoordinator(CoordinatorOptions{
		StatePath: statePath, ListenAddr: "127.0.0.1:0", OpTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	awaitResolved(t, coord)

	if got := coord.Config().Epoch; got != 2 {
		t.Fatalf("resolution published epoch %d, want 2", got)
	}
	if got := len(a.Store().Query(collector.Filter{})); got != 0 {
		t.Fatalf("source still holds %d events after the fence", got)
	}
	assertSameMultiset(t, "destination after completion", ref, b.Store().Query(collector.Filter{}))
	if a.Epoch() != 2 || b.Epoch() != 2 {
		t.Fatalf("shards applied epochs %d/%d, want 2/2", a.Epoch(), b.Epoch())
	}
	if len(a.OpenTransfers()) != 0 || len(b.OpenTransfers()) != 0 {
		t.Fatal("transfers still open after completion")
	}
	// With nothing open, checkpoints work again.
	if err := a.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after completion: %v", err)
	}
}

// TestCoordinatorRestartAbortsStaging: the mirror image — the
// coordinator crashed before its cutover decision, so restart resolution
// must abort: the destination fences what it imported, the source keeps
// serving, and the old epoch stands.
func TestCoordinatorRestartAbortsStaging(t *testing.T) {
	base := t.TempDir()
	dirA, dirB := filepath.Join(base, "a"), filepath.Join(base, "b")
	a, b := startNode(t, 1, dirA), startNode(t, 2, dirB)
	defer a.Close()
	defer b.Close()

	ref := ingestTestLoad(t, a.IngestAddr(), 40, 4)
	rb := uint64(2)<<16 | 0
	mask := ^uint64(0)
	stageHandoff(t, a, b, rb, mask)

	cur := Config{Epoch: 1, Shards: []ShardInfo{a.Info(), b.Info()}}
	for s := range cur.Slots {
		cur.Slots[s] = 1
	}
	target := Config{Epoch: 2, Shards: []ShardInfo{a.Info(), b.Info()}}
	for s := range target.Slots {
		target.Slots[s] = 2
	}
	statePath := filepath.Join(base, "coord.json")
	writeCoordState(t, statePath, coordState{
		Current: cur,
		Pending: &pendingRebalance{
			Phase:  "staging",
			Target: target,
			Transfers: []transfer{
				{RB: rb, Source: 1, Dest: 2, Mask: mask},
			},
		},
	})
	coord, err := StartCoordinator(CoordinatorOptions{
		StatePath: statePath, ListenAddr: "127.0.0.1:0", OpTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	awaitResolved(t, coord)

	if got := coord.Config().Epoch; got != 1 {
		t.Fatalf("abort published epoch %d, want the old epoch 1", got)
	}
	assertSameMultiset(t, "source after abort", ref, a.Store().Query(collector.Filter{}))
	if got := len(b.Store().Query(collector.Filter{})); got != 0 {
		t.Fatalf("destination still holds %d events after the abort fence", got)
	}
	if len(a.OpenTransfers()) != 0 || len(b.OpenTransfers()) != 0 {
		t.Fatal("transfers still open after abort")
	}

	// The state file no longer carries the pending record: a second
	// restart has nothing to resolve.
	data, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	var st coordState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.Pending != nil {
		t.Fatal("resolved rebalance still pending in the durable state")
	}
}

// TestAbortSkipsVanishedShards: a staging record whose transfer endpoints
// are in no membership view (both shards gone for good) must still
// resolve — the abort skips the unreachable fences and clears the record
// instead of freezing membership forever.
func TestAbortSkipsVanishedShards(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "coord.json")
	only := ShardInfo{ID: 1, Ingest: []string{"127.0.0.1:1"}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}
	cur := Config{Epoch: 3, Shards: []ShardInfo{only}}
	for s := range cur.Slots {
		cur.Slots[s] = 1
	}
	target := cur
	target.Epoch = 4
	writeCoordState(t, statePath, coordState{
		Current: cur,
		Pending: &pendingRebalance{
			Phase:  "staging",
			Target: target,
			Transfers: []transfer{
				{RB: uint64(4)<<16 | 0, Source: 7, Dest: 8, Mask: ^uint64(0)},
			},
		},
	})
	coord, err := StartCoordinator(CoordinatorOptions{
		StatePath: statePath, ListenAddr: "127.0.0.1:0", OpTimeout: 500 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	awaitResolved(t, coord)
	if got := coord.Config().Epoch; got != 3 {
		t.Fatalf("abort of a vanished-shard rebalance published epoch %d, want the old epoch 3", got)
	}
}

// TestUnresolvedPendingFreezesMembership: while a rebalance record cannot
// resolve (its destination is down), every membership operation is
// refused — admitting churn on top of an undecided cutover is how you
// double-deliver.
func TestUnresolvedPendingFreezesMembership(t *testing.T) {
	statePath := filepath.Join(t.TempDir(), "coord.json")
	// A listener that was just closed: dials fail fast, nothing resolves.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := ln.Addr().String()
	ln.Close()

	a := ShardInfo{ID: 1, Ingest: []string{deadAddr}, Query: deadAddr, Admin: deadAddr}
	b := ShardInfo{ID: 2, Ingest: []string{deadAddr}, Query: deadAddr, Admin: deadAddr}
	cur := Config{Epoch: 1, Shards: []ShardInfo{a, b}}
	for s := range cur.Slots {
		cur.Slots[s] = 1
	}
	target := cur
	target.Epoch = 2
	writeCoordState(t, statePath, coordState{
		Current: cur,
		Pending: &pendingRebalance{
			Phase:  "staging",
			Target: target,
			Transfers: []transfer{
				{RB: uint64(2)<<16 | 0, Source: 1, Dest: 2, Mask: ^uint64(0)},
			},
		},
	})
	coord, err := StartCoordinator(CoordinatorOptions{
		StatePath: statePath, ListenAddr: "127.0.0.1:0", OpTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if coord.Resolved() {
		t.Fatal("rebalance against dead shards resolved instantly")
	}
	if _, err := coord.Join(ShardInfo{ID: 3, Admin: deadAddr}); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("join during unresolved rebalance: err = %v, want already-pending", err)
	}
	if _, err := coord.Leave(1); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("leave during unresolved rebalance: err = %v, want already-pending", err)
	}
	if _, err := coord.Retire(2); err == nil || !strings.Contains(err.Error(), "pending") {
		t.Fatalf("retire during unresolved rebalance: err = %v, want already-pending", err)
	}
}
