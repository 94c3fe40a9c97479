// End-to-end fabric tests: a real multi-shard collector fabric — ingest
// routed by the slot ring, rebalances driven by the coordinator, queries
// merged across shards — audited for the exactly-once invariant with the
// oracle's multiset comparison. The chaos scenarios add membership churn
// under load, a one-way partition mid-ingest, and a SIGKILLed shard
// mid-rebalance (a re-executed child process, as in the collector's
// kill-recover harness). The file lives in an external package so it can
// use the oracle, which imports fabric for AuditFabric.
package fabric_test

import (
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/collector/wal"
	"netseer/internal/faultconn"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/oracle"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// TestMain routes the re-executed binary into the shard child when the
// harness env var is set; otherwise it runs the tests normally.
func TestMain(m *testing.M) {
	if os.Getenv("NETSEER_FABRIC_CHILD") == "1" {
		childMain()
		return
	}
	os.Exit(m.Run())
}

// childMain is one life of a shard node: recover from the WAL in the
// harness directory, serve on the fixed addresses, and run until
// SIGKILLed. The bind retries because the previous life's listeners may
// linger briefly after the kill.
func childMain() {
	id, _ := strconv.ParseUint(os.Getenv("NETSEER_FABRIC_ID"), 10, 32)
	delayMs, _ := strconv.Atoi(os.Getenv("NETSEER_FABRIC_STAGE_DELAY_MS"))
	opts := fabric.ShardOptions{
		ID:         uint32(id),
		Dir:        os.Getenv("NETSEER_FABRIC_DIR"),
		IngestAddr: os.Getenv("NETSEER_FABRIC_INGEST"),
		QueryAddr:  os.Getenv("NETSEER_FABRIC_QUERY"),
		AdminAddr:  os.Getenv("NETSEER_FABRIC_ADMIN"),
		StageDelay: time.Duration(delayMs) * time.Millisecond,
	}
	for i := 0; ; i++ {
		if _, err := fabric.StartShard(opts); err == nil {
			break
		} else if i > 600 {
			fmt.Fprintf(os.Stderr, "fabric child: %v\n", err)
			os.Exit(1)
		}
		time.Sleep(5 * time.Millisecond)
	}
	select {} // run until SIGKILLed
}

// startShard starts an in-process shard with an unsynced WAL (these
// tests crash child processes, not the parent).
func startShard(t *testing.T, id uint32, dir string) *fabric.ShardNode {
	t.Helper()
	n, err := fabric.StartShard(fabric.ShardOptions{
		ID: id, Dir: dir,
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("start shard %d: %v", id, err)
	}
	return n
}

func startCoordinator(t *testing.T, statePath string, bootstrap []fabric.ShardInfo, opTimeout time.Duration) *fabric.Coordinator {
	t.Helper()
	c, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath: statePath, ListenAddr: "127.0.0.1:0",
		Bootstrap: bootstrap, OpTimeout: opTimeout,
	})
	if err != nil {
		t.Fatalf("start coordinator: %v", err)
	}
	return c
}

// eventN builds an event with a globally unique wire identity: distinct
// flows spread load across slots and keep the multiset audit sharp.
func eventN(i int, sw uint16, ts sim.Time) fevent.Event {
	flow := pkt.FlowKey{
		SrcIP: pkt.IP(10, byte(i>>16), byte(i>>8), byte(i)), DstIP: pkt.IP(192, 168, 0, 1),
		SrcPort: uint16(i), DstPort: 443, Proto: 6,
	}
	return fevent.Event{
		Type: fevent.TypeDrop, Flow: flow, Hash: flow.Hash(), DropCode: fevent.DropNoRoute,
		SwitchID: sw, Timestamp: ts, IngressPort: 1, EgressPort: 2,
		Count: uint16(i%60000) + 1,
	}
}

// loadState generates routed load and remembers every delivered event as
// the audit reference.
type loadState struct {
	mu   sync.Mutex
	ref  []fevent.Event
	next int
}

func (ls *loadState) deliver(r *fabric.Router, batches, perBatch int) {
	for b := 0; b < batches; b++ {
		ls.mu.Lock()
		start := ls.next
		ls.next += perBatch
		ls.mu.Unlock()
		sw := uint16(start%5 + 1)
		ts := sim.Time(1000 + start)
		evs := make([]fevent.Event, perBatch)
		for i := range evs {
			evs[i] = eventN(start+i, sw, ts)
		}
		r.Deliver(&fevent.Batch{SwitchID: sw, Timestamp: ts, Events: evs})
		ls.mu.Lock()
		ls.ref = append(ls.ref, evs...)
		ls.mu.Unlock()
	}
}

func (ls *loadState) reference() []fevent.Event {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	return append([]fevent.Event(nil), ls.ref...)
}

// audit fails the test on any exactly-once violation fabric-wide.
func audit(t *testing.T, ls *loadState, cfg fabric.Config) fabric.MergedResult {
	t.Helper()
	res := fabric.FanOutQuery(cfg, "", 10*time.Second)
	if diffs := oracle.AuditFabric(ls.reference(), res, 10); len(diffs) != 0 {
		t.Fatalf("exactly-once violated (%d diffs):\n%s", len(diffs), diffs[0])
	}
	return res
}

func waitResolved(t *testing.T, c *fabric.Coordinator, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for !c.Resolved() {
		if time.Now().After(deadline) {
			t.Fatalf("coordinator did not resolve its pending rebalance within %v", within)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func TestFabricExactlyOnceSteadyState(t *testing.T) {
	base := t.TempDir()
	var infos []fabric.ShardInfo
	for id := uint32(1); id <= 3; id++ {
		n := startShard(t, id, filepath.Join(base, fmt.Sprintf("s%d", id)))
		defer n.Close()
		infos = append(infos, n.Info())
	}
	coord := startCoordinator(t, filepath.Join(base, "coord.json"), infos, 5*time.Second)
	defer coord.Close()

	cfg, err := fabric.FetchConfig(coord.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("fetch config: %v", err)
	}
	if cfg.Epoch != 1 || len(cfg.Shards) != 3 {
		t.Fatalf("bootstrap config epoch=%d shards=%d, want 1/3", cfg.Epoch, len(cfg.Shards))
	}

	r := fabric.NewRouter(cfg, collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()
	ls := &loadState{}
	ls.deliver(r, 300, 8)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	res := audit(t, ls, cfg)
	if res.Partial || res.ShardsOK != 3 {
		t.Fatalf("full fan-out reported partial=%v ok=%d", res.Partial, res.ShardsOK)
	}

	// A filtered fan-out stays scoped and merged.
	bySwitch := fabric.FanOutQuery(cfg, "switch=3", 10*time.Second)
	want := 0
	for _, e := range ls.reference() {
		if e.SwitchID == 3 {
			want++
		}
	}
	if len(bySwitch.Events) != want {
		t.Fatalf("switch=3 fan-out returned %d events, reference has %d", len(bySwitch.Events), want)
	}
	for _, e := range bySwitch.Events {
		if e.SwitchID != 3 {
			t.Fatalf("switch=3 fan-out leaked an event from switch %d", e.SwitchID)
		}
	}
}

func TestFanOutPartialOnUnreachableShard(t *testing.T) {
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()
	b := startShard(t, 2, filepath.Join(base, "s2"))
	shards := []fabric.ShardInfo{a.Info(), b.Info()}
	cfg := fabric.Config{Epoch: 1, Shards: shards, Slots: fabric.AssignSlots(shards)}

	r := fabric.NewRouter(cfg, collector.ClientConfig{})
	defer r.Close()
	ls := &loadState{}
	ls.deliver(r, 60, 5)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	b.Close()

	res := fabric.FanOutQuery(cfg, "", 2*time.Second)
	if !res.Partial || res.ShardsOK != 1 {
		t.Fatalf("fan-out with a dead shard: partial=%v ok=%d, want partial 1/2", res.Partial, res.ShardsOK)
	}
	diffs := oracle.AuditFabric(ls.reference(), res, 10)
	if len(diffs) == 0 {
		t.Fatal("oracle passed a partial fan-out silently")
	}
}

// TestShardDrainCheckpointRestart is netseerd -mode shard's SIGTERM path:
// drain ingest with the exporter still connected, checkpoint, close. The
// restarted shard holds every acked event exactly once and replays no log
// tail: the checkpoint covered it all.
func TestShardDrainCheckpointRestart(t *testing.T) {
	dir := t.TempDir()
	n := startShard(t, 1, dir)
	shards := []fabric.ShardInfo{n.Info()}
	cfg := fabric.Config{Epoch: 1, Shards: shards, Slots: fabric.AssignSlots(shards)}
	r := fabric.NewRouter(cfg, collector.ClientConfig{})
	defer r.Close()
	ls := &loadState{}
	ls.deliver(r, 40, 5)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	n.Drain(200 * time.Millisecond)
	if err := n.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after drain: %v", err)
	}
	if err := n.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := w.Replay(func([]byte) error { return nil })
	w.Close()
	if err != nil || st.Records != 0 {
		t.Fatalf("reopened log tail: %d records (err %v), want 0", st.Records, err)
	}

	n = startShard(t, 1, dir)
	defer n.Close()
	cfg.Shards = []fabric.ShardInfo{n.Info()}
	if diffs := oracle.AuditFabric(ls.reference(), fabric.FanOutQuery(cfg, "", 2*time.Second), 10); len(diffs) > 0 {
		t.Fatalf("restarted shard disagrees with the acked reference: %v", diffs)
	}
}

func TestShardAddUnderLoad(t *testing.T) {
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()
	b := startShard(t, 2, filepath.Join(base, "s2"))
	defer b.Close()
	coord := startCoordinator(t, filepath.Join(base, "coord.json"),
		[]fabric.ShardInfo{a.Info(), b.Info()}, 5*time.Second)
	defer coord.Close()

	r := fabric.NewRouter(coord.Config(), collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()
	r.WatchCoordinator(coord.Addr(), 25*time.Millisecond)

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

	time.Sleep(50 * time.Millisecond)
	c := startShard(t, 3, filepath.Join(base, "s3"))
	defer c.Close()
	cfg2, err := coord.Join(c.Info())
	if err != nil {
		t.Fatalf("join under load: %v", err)
	}
	if cfg2.Epoch != 2 {
		t.Fatalf("join published epoch %d, want 2", cfg2.Epoch)
	}

	// The watcher picks the new epoch up on its own.
	deadline := time.Now().Add(5 * time.Second)
	for r.Epoch() != cfg2.Epoch {
		if time.Now().After(deadline) {
			t.Fatal("router never applied the published epoch via WatchCoordinator")
		}
		time.Sleep(10 * time.Millisecond)
	}
	time.Sleep(50 * time.Millisecond) // churn after the cutover too
	close(stop)
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	res := audit(t, ls, cfg2)
	if res.ShardsOK != 3 {
		t.Fatalf("fan-out reached %d/3 shards", res.ShardsOK)
	}
	if got := len(c.Store().Query(collector.Filter{})); got == 0 {
		t.Fatal("joined shard holds no events — the rebalance moved nothing")
	}
}

func TestShardLeaveRetireUnderLoad(t *testing.T) {
	base := t.TempDir()
	var nodes []*fabric.ShardNode
	var infos []fabric.ShardInfo
	for id := uint32(1); id <= 3; id++ {
		n := startShard(t, id, filepath.Join(base, fmt.Sprintf("s%d", id)))
		defer n.Close()
		nodes = append(nodes, n)
		infos = append(infos, n.Info())
	}
	coord := startCoordinator(t, filepath.Join(base, "coord.json"), infos, 5*time.Second)
	defer coord.Close()

	r := fabric.NewRouter(coord.Config(), collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()

	// Retiring an undemoted shard must be refused: it still owns slots.
	if _, err := coord.Retire(3); err == nil {
		t.Fatal("retire of an undemoted shard succeeded")
	}

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

	time.Sleep(50 * time.Millisecond)
	cfg2, err := coord.Leave(3)
	if err != nil {
		t.Fatalf("leave under load: %v", err)
	}
	if _, ok := cfg2.Shard(3); !ok {
		t.Fatal("demotion epoch dropped shard 3 from membership — late arrivals would strand")
	}
	for slot := 0; slot < fabric.NSlots; slot++ {
		if cfg2.Slots[slot] == 3 {
			t.Fatalf("demoted shard still owns slot %d", slot)
		}
	}
	r.ApplyConfig(cfg2)
	time.Sleep(50 * time.Millisecond) // load keeps flowing, none of it to shard 3
	close(stop)
	wg.Wait()
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	cfg3, err := coord.Retire(3)
	if err != nil {
		t.Fatalf("retire: %v", err)
	}
	if _, ok := cfg3.Shard(3); ok {
		t.Fatal("retire epoch still lists shard 3")
	}
	r.ApplyConfig(cfg3)

	if got := len(nodes[2].Store().Query(collector.Filter{})); got != 0 {
		t.Fatalf("retired shard still holds %d events — the drain stranded them", got)
	}
	nodes[2].Close()
	res := audit(t, ls, cfg3)
	if res.Partial {
		t.Fatal("fan-out after retire still depends on the removed shard")
	}
}

func TestAsymmetricPartitionDuringIngest(t *testing.T) {
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()

	// Shard 2's ingest wire drops the exporter→shard direction 50ms in,
	// healing 300ms later — acks keep flowing out, frames stall in.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fln := faultconn.Wrap(ln, faultconn.Config{
		PartitionDir:   faultconn.Inbound,
		PartitionAfter: 50 * time.Millisecond,
		PartitionFor:   300 * time.Millisecond,
	})
	b, err := fabric.StartShard(fabric.ShardOptions{
		ID: 2, Dir: filepath.Join(base, "s2"),
		Server:    collector.ServerConfig{Listener: fln},
		QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	shards := []fabric.ShardInfo{a.Info(), b.Info()}
	cfg := fabric.Config{Epoch: 1, Shards: shards, Slots: fabric.AssignSlots(shards)}
	r := fabric.NewRouter(cfg, collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()

	ls := &loadState{}
	for i := 0; i < 40; i++ {
		ls.deliver(r, 5, 5)
		time.Sleep(10 * time.Millisecond) // spans the partition window
	}
	if err := r.Flush(); err != nil {
		t.Fatalf("flush across the partition: %v", err)
	}
	res := audit(t, ls, cfg)
	if res.Partial {
		t.Fatal("fan-out partial after the partition healed")
	}
}

// pickAddr reserves a port for the child by binding and releasing it.
func pickAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

func spawnChild(t *testing.T, dir string, id uint32, ingest, query, admin string, stageDelay time.Duration) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=NONE")
	cmd.Env = append(os.Environ(),
		"NETSEER_FABRIC_CHILD=1",
		"NETSEER_FABRIC_DIR="+dir,
		"NETSEER_FABRIC_ID="+strconv.Itoa(int(id)),
		"NETSEER_FABRIC_INGEST="+ingest,
		"NETSEER_FABRIC_QUERY="+query,
		"NETSEER_FABRIC_ADMIN="+admin,
		"NETSEER_FABRIC_STAGE_DELAY_MS="+strconv.Itoa(int(stageDelay/time.Millisecond)),
	)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("spawn shard child: %v", err)
	}
	return cmd
}

func waitDial(t *testing.T, addr string, within time.Duration) {
	t.Helper()
	deadline := time.Now().Add(within)
	for {
		c, err := net.DialTimeout("tcp", addr, 250*time.Millisecond)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s not reachable within %v: %v", addr, within, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestShardSIGKILLMidRebalance kills a real joining shard process while
// the coordinator is shipping it slot ranges, then asserts the fabric
// resolves — the kill aborts the rebalance, the old epoch stands, and a
// retried join lands cleanly — with exactly-once holding at every step.
func TestShardSIGKILLMidRebalance(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills child processes")
	}
	base := t.TempDir()
	a := startShard(t, 1, filepath.Join(base, "s1"))
	defer a.Close()
	b := startShard(t, 2, filepath.Join(base, "s2"))
	defer b.Close()
	coord := startCoordinator(t, filepath.Join(base, "coord.json"),
		[]fabric.ShardInfo{a.Info(), b.Info()}, time.Second)
	defer coord.Close()

	r := fabric.NewRouter(coord.Config(), collector.ClientConfig{MaxQueue: 8192})
	defer r.Close()
	ls := &loadState{}
	ls.deliver(r, 150, 6)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}

	childDir := filepath.Join(base, "s3")
	ingest, query, admin := pickAddr(t), pickAddr(t), pickAddr(t)
	info3 := fabric.ShardInfo{ID: 3, Ingest: []string{ingest}, Query: query, Admin: admin}

	// First life: the import handler holds its reply 500ms after the
	// handoff went durable, so the kill lands mid-rebalance.
	child := spawnChild(t, childDir, 3, ingest, query, admin, 500*time.Millisecond)
	waitDial(t, admin, 10*time.Second)

	joinErr := make(chan error, 1)
	go func() {
		_, err := coord.Join(info3)
		joinErr <- err
	}()
	time.Sleep(250 * time.Millisecond)
	child.Process.Kill()
	child.Wait()
	err := <-joinErr

	// Second life: same directory, same addresses, no stage delay.
	child = spawnChild(t, childDir, 3, ingest, query, admin, 0)
	defer func() {
		child.Process.Kill()
		child.Wait()
	}()
	waitDial(t, admin, 10*time.Second)
	waitResolved(t, coord, 20*time.Second)

	cfg := coord.Config()
	if err != nil {
		// The usual path: the kill failed the join, the abort resolved
		// once the shard came back, and epoch 1 stands.
		if _, ok := cfg.Shard(3); ok {
			t.Fatal("aborted join left shard 3 in membership")
		}
		audit(t, ls, cfg)
		if cfg, err = coord.Join(info3); err != nil {
			t.Fatalf("retried join after recovery: %v", err)
		}
	} else if _, ok := cfg.Shard(3); !ok {
		t.Fatal("join reported success but shard 3 is not a member")
	}

	r.ApplyConfig(cfg)
	ls.deliver(r, 100, 6)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after recovery: %v", err)
	}
	res := audit(t, ls, cfg)
	if res.Partial || res.ShardsOK != 3 {
		t.Fatalf("final fan-out partial=%v ok=%d, want full 3/3", res.Partial, res.ShardsOK)
	}

	// The recovered 3-shard fabric must still trace end to end: one
	// sampled batch delivered across it assembles — spans pulled from
	// the in-process shards and the re-executed child alike — with the
	// full exporter→shard→WAL-fsync→store chain in monotonic order.
	trace.SetSampleEvery(1)
	defer trace.SetSampleEvery(trace.DefaultSampleEvery)
	evs := make([]fevent.Event, 9)
	for i := range evs {
		evs[i] = eventN(900000+i, 2, 3000)
	}
	tb := tracedBatch(t, 2, 77, 3000, evs)
	id := tb.Trace.TraceID
	r.Deliver(tb)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush of traced batch: %v", err)
	}
	tr := fabric.FanOutTrace(cfg, id, 10*time.Second)
	if tr.Partial {
		t.Fatalf("trace assembly partial (%d/%d shards)", tr.ShardsOK, tr.ShardsTotal)
	}
	stages := make(map[string]bool)
	for _, j := range tr.Spans {
		stages[j.Stage] = true
	}
	for _, st := range []trace.Stage{trace.StageBatcher, trace.StageExportEnqueue,
		trace.StageIngest, trace.StageWALFsync, trace.StageStoreIndex} {
		if !stages[st.String()] {
			t.Errorf("post-recovery trace misses the %s hop: %v", st, stages)
		}
	}
	for i := 1; i < len(tr.Spans); i++ {
		if tr.Spans[i].Start < tr.Spans[i-1].Start {
			t.Fatalf("span starts not monotonic after recovery: %s at %d after %s at %d",
				tr.Spans[i].Stage, tr.Spans[i].Start, tr.Spans[i-1].Stage, tr.Spans[i-1].Start)
		}
	}

	// The fleet plane over the same fabric: healthy with all three
	// members up, unhealthy — with the dead member's row kept as the
	// signal — the moment the child is SIGKILLed again.
	rep := coord.FleetStatus(5 * time.Second)
	if !rep.Healthy {
		t.Fatalf("recovered fabric reported unhealthy: %+v", rep)
	}
	child.Process.Kill()
	child.Wait()
	rep = coord.FleetStatus(2 * time.Second)
	if rep.Healthy {
		t.Fatal("fleet reported healthy with shard 3 SIGKILLed")
	}
	var deadRow *fabric.FleetShard
	for i := range rep.Shards {
		if rep.Shards[i].ID == 3 {
			deadRow = &rep.Shards[i]
		}
	}
	if deadRow == nil || deadRow.Alive {
		t.Fatalf("fleet does not reflect the dead shard: %+v", rep.Shards)
	}
}
