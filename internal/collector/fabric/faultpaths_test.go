// Error-surface tests for the fabric: membership guard rails, shard
// startup failures, the shard admin protocol's rejection paths, and the
// router's pending-batch re-route when a shard vanishes from membership
// with deliveries still buffered toward it.
package fabric_test

import (
	"bufio"
	"encoding/base64"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// TestMembershipGuards exercises the refusals that keep the ring sane:
// no duplicate IDs, no removing strangers, never removing the last
// shard. None of these touch a shard — the fake admin address proves it.
func TestMembershipGuards(t *testing.T) {
	only := fabric.ShardInfo{ID: 1, Ingest: []string{"127.0.0.1:1"}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}
	coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath:  filepath.Join(t.TempDir(), "coord.json"),
		ListenAddr: "127.0.0.1:0",
		Bootstrap:  []fabric.ShardInfo{only},
		OpTimeout:  time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	if _, err := coord.Leave(1); err == nil || !strings.Contains(err.Error(), "last shard") {
		t.Fatalf("leaving the last shard: err = %v, want the last-shard refusal", err)
	}
	if _, err := coord.Leave(9); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("leaving a stranger: err = %v, want not-a-member", err)
	}
	if _, err := coord.Retire(9); err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("retiring a stranger: err = %v, want not-a-member", err)
	}
	if _, err := coord.Join(only); err == nil || !strings.Contains(err.Error(), "already a member") {
		t.Fatalf("joining a duplicate ID: err = %v, want already-a-member", err)
	}
	if cfg := coord.Config(); cfg.Epoch != 1 || len(cfg.Shards) != 1 {
		t.Fatalf("guard refusals moved the ring: epoch %d, %d shards", cfg.Epoch, len(cfg.Shards))
	}
}

// TestStartCoordinatorRefusesBadState: a state file that does not parse,
// cannot be read, or cannot be replaced at bootstrap fails the start.
func TestStartCoordinatorRefusesBadState(t *testing.T) {
	dir := t.TempDir()
	corrupt := filepath.Join(dir, "corrupt.json")
	notDir := filepath.Join(dir, "file")
	blocked := filepath.Join(dir, "blocked.json")
	for _, err := range []error{
		os.WriteFile(corrupt, []byte("{"), 0o644),
		os.WriteFile(notDir, nil, 0o644),
		os.Mkdir(blocked+".tmp", 0o755), // the replace's tmp file cannot be created
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range []string{corrupt, filepath.Join(notDir, "coord.json"), blocked} {
		coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
			StatePath:  path,
			ListenAddr: "127.0.0.1:0",
			Bootstrap:  []fabric.ShardInfo{{ID: 1, Ingest: []string{"127.0.0.1:1"}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}},
		})
		if err == nil {
			coord.Close()
			t.Errorf("%s: StartCoordinator succeeded", path)
		}
	}
}

// TestStartShardFailuresReleaseResources: every constructor failure must
// come back as an error (not a hang or a panic), with the earlier
// listeners and the WAL torn down so the directory can be reopened.
func TestStartShardFailuresReleaseResources(t *testing.T) {
	bad := "host:port:extra"
	cases := []struct {
		name string
		opts fabric.ShardOptions
	}{
		{"bad ingest addr", fabric.ShardOptions{IngestAddr: bad, QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0"}},
		{"bad query addr", fabric.ShardOptions{IngestAddr: "127.0.0.1:0", QueryAddr: bad, AdminAddr: "127.0.0.1:0"}},
		{"bad admin addr", fabric.ShardOptions{IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: bad}},
	}
	for _, tc := range cases {
		tc.opts.ID = 1
		tc.opts.Dir = filepath.Join(t.TempDir(), "s")
		if _, err := fabric.StartShard(tc.opts); err == nil {
			t.Errorf("%s: StartShard succeeded", tc.name)
			continue
		}
		// The failure must not leave the WAL locked or half-made: a clean
		// retry with good addresses works in the same directory.
		tc.opts.IngestAddr, tc.opts.QueryAddr, tc.opts.AdminAddr = "127.0.0.1:0", "127.0.0.1:0", "127.0.0.1:0"
		n, err := fabric.StartShard(tc.opts)
		if err != nil {
			t.Errorf("%s: retry after failure: %v", tc.name, err)
			continue
		}
		n.Close()
	}

	// A data dir that cannot be created is a startup error too.
	file := filepath.Join(t.TempDir(), "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := fabric.StartShard(fabric.ShardOptions{
		ID: 1, Dir: filepath.Join(file, "nested"),
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	}); err == nil {
		t.Error("StartShard under a regular file succeeded")
	}
	// So is none: a shard's handoffs are logged.
	if _, err := fabric.StartShard(fabric.ShardOptions{
		ID: 1, IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	}); err == nil {
		t.Error("StartShard without a data dir succeeded")
	}
}

// TestShardAdminProtocolErrors drives the admin port with the requests a
// buggy or stale coordinator might send: each is rejected in-band and the
// connection keeps serving.
func TestShardAdminProtocolErrors(t *testing.T) {
	n := startShard(t, 1, t.TempDir())
	defer n.Close()

	conn, err := net.Dial("tcp", n.AdminAddr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	sc := bufio.NewScanner(conn)
	roundTrip := func(line string) string {
		t.Helper()
		if _, err := fmt.Fprintln(conn, line); err != nil {
			t.Fatalf("send %q: %v", line, err)
		}
		if !sc.Scan() {
			t.Fatalf("no response to %q: %v", line, sc.Err())
		}
		return sc.Text()
	}

	if resp := roundTrip(`{"op":"wat"}`); !strings.Contains(resp, "unknown op") {
		t.Fatalf("unknown op: %q", resp)
	}
	if resp := roundTrip(`{broken`); !strings.Contains(resp, "bad request") {
		t.Fatalf("malformed JSON: %q", resp)
	}
	if resp := roundTrip(`{"op":"apply"}`); !strings.Contains(resp, "missing config") {
		t.Fatalf("config-less apply: %q", resp)
	}
	if resp := roundTrip(`{"op":"import","rb":7,"events":"!!!not-base64"}`); !strings.Contains(resp, "bad events") {
		t.Fatalf("bad events blob: %q", resp)
	}
	cut, _ := (&fevent.Batch{SwitchID: 1, Events: []fevent.Event{{Type: fevent.TypePause, SwitchID: 1}}}).AppendTo(nil)
	cut = cut[:len(cut)-fevent.RecordLen/2] // a batch truncated mid-record
	if resp := roundTrip(`{"op":"import","rb":7,"events":"` + base64.StdEncoding.EncodeToString(cut) + `"}`); !strings.Contains(resp, "bad events") {
		t.Fatalf("truncated batch image: %q", resp)
	}
	if resp := roundTrip(`{"op":"import","rb":7,"seen":"!!!not-base64"}`); !strings.Contains(resp, "bad seen") {
		t.Fatalf("bad seen blob: %q", resp)
	}
	// After all that abuse, the node still answers a real op.
	if resp := roundTrip(`{"op":"ping"}`); !strings.Contains(resp, `"ok":true`) {
		t.Fatalf("ping after errors: %q", resp)
	}

	// A stale apply (epoch behind what the shard already runs) is refused.
	live := fabric.Config{Epoch: 5, Shards: []fabric.ShardInfo{n.Info()}}
	for s := range live.Slots {
		live.Slots[s] = 1
	}
	if resp := roundTrip(`{"op":"apply","config":` + string(live.Encode()) + `}`); !strings.Contains(resp, `"ok":true`) {
		t.Fatalf("apply epoch 5: %q", resp)
	}
	stale := live
	stale.Epoch = 3
	if resp := roundTrip(`{"op":"apply","config":` + string(stale.Encode()) + `}`); !strings.Contains(resp, "behind applied") {
		t.Fatalf("stale apply: %q", resp)
	}
}

// TestRouterReroutesPendingOnMembershipDrop: batches buffered toward a
// shard that never answers must survive that shard's removal from the
// ring — ApplyConfig takes the dead client's queue over and re-routes it
// whole (seqs preserved) to the slots' new owner.
func TestRouterReroutesPendingOnMembershipDrop(t *testing.T) {
	live := startShard(t, 1, t.TempDir())
	defer live.Close()

	// Shard 2 exists only as an address nothing listens on: deliveries
	// routed to it buffer in the client and go nowhere.
	dead := fabric.ShardInfo{ID: 2, Ingest: []string{pickAddr(t)}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}
	shards := []fabric.ShardInfo{live.Info(), dead}
	cfg := fabric.Config{Epoch: 1, Shards: shards, Slots: fabric.AssignSlots(shards)}

	r := fabric.NewRouter(cfg, collector.ClientConfig{})
	defer r.Close()
	var ref []fevent.Event
	for b := 0; b < 20; b++ {
		evs := make([]fevent.Event, 6)
		for i := range evs {
			evs[i] = eventN(b*6+i, uint16(b%4+1), sim.Time(2000+b))
		}
		r.Deliver(&fevent.Batch{SwitchID: uint16(b%4 + 1), Timestamp: sim.Time(2000 + b), Events: evs})
		ref = append(ref, evs...)
	}

	// Epoch 2 drops shard 2; everything it was owed belongs to shard 1 now.
	next := fabric.Config{Epoch: 2, Shards: []fabric.ShardInfo{live.Info()}}
	next.Slots = fabric.AssignSlots(next.Shards)
	r.ApplyConfig(next)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after re-route: %v", err)
	}

	assertStores(t, "surviving shard", live.Store(), ref)
}

// assertStores fails unless store holds exactly the multiset ref.
func assertStores(t *testing.T, what string, store *collector.Store, ref []fevent.Event) {
	t.Helper()
	got := store.Query(collector.Filter{})
	if len(got) != len(ref) {
		t.Fatalf("%s stores %d events after re-route, want %d", what, len(got), len(ref))
	}
	counts := make(map[fevent.Event]int, len(ref))
	for _, e := range ref {
		counts[e]++
	}
	for _, e := range got {
		counts[e]--
	}
	for k, n := range counts {
		if n != 0 {
			t.Fatalf("%s: re-route multiset off by %d on identity %v", what, n, &k)
		}
	}
}

// fastRerouteClients retries dead endpoints quickly and flushes long.
var fastRerouteClients = collector.ClientConfig{
	DialTimeout: 250 * time.Millisecond,
	BackoffMin:  2 * time.Millisecond, BackoffMax: 20 * time.Millisecond,
	FlushTimeout: 10 * time.Second, CloseTimeout: time.Second,
}

// slotConfig is a config whose slots the test assigns by hand.
func slotConfig(epoch uint64, owner func(slot int) uint32, shards ...fabric.ShardInfo) fabric.Config {
	cfg := fabric.Config{Epoch: epoch, Shards: shards}
	for slot := range cfg.Slots {
		cfg.Slots[slot] = owner(slot)
	}
	return cfg
}

// eventsIn returns n events of switch sw whose slots keep accepts.
func eventsIn(n int, sw uint16, keep func(slot int) bool) []fevent.Event {
	var evs []fevent.Event
	for i := 0; len(evs) < n; i++ {
		if e := eventN(900000+i, sw, 3000); keep(fabric.SlotOf(sw, e.Flow)) {
			evs = append(evs, e)
		}
	}
	return evs
}

// sinkShard listens like a shard that reads every frame and acks none,
// and reports the sequences it read.
type sinkShard struct {
	ln    net.Listener
	mu    sync.Mutex
	conns []net.Conn
	seqs  []uint64
}

func newSinkShard(t *testing.T) *sinkShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &sinkShard{ln: ln}
	t.Cleanup(func() {
		ln.Close()
		s.mu.Lock()
		defer s.mu.Unlock()
		for _, c := range s.conns {
			c.Close()
		}
	})
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			s.mu.Lock()
			s.conns = append(s.conns, conn)
			s.mu.Unlock()
			go func() {
				var b fevent.Batch
				for collector.ReadFrame(conn, &b) == nil {
					s.mu.Lock()
					s.seqs = append(s.seqs, b.Seq)
					s.mu.Unlock()
				}
			}()
		}
	}()
	return s
}

func (s *sinkShard) read() []uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]uint64(nil), s.seqs...)
}

// TestRouterDrainsOfTwoTakeoversStayApart: two retired shards whose
// batches drain into one destination before it acks carry two unrelated
// sequence spaces. Sharing one client would have the destination's
// cumulative ack of the higher release the lower unread; here its first
// connection stores one frame, acks it and drops, and every batch must
// still arrive.
func TestRouterDrainsOfTwoTakeoversStayApart(t *testing.T) {
	dest := startShard(t, 3, t.TempDir())
	defer dest.Close()
	sinks := map[uint32]*sinkShard{1: newSinkShard(t), 2: newSinkShard(t)}
	info := func(id uint32) fabric.ShardInfo {
		return fabric.ShardInfo{ID: id, Ingest: []string{sinks[id].ln.Addr().String()}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}
	}
	even := func(slot int) bool { return slot%2 == 0 }
	r := fabric.NewRouter(slotConfig(1, func(slot int) uint32 { return 2 - uint32(slot%2) }, info(1), info(2)), fastRerouteClients)
	defer r.Close()
	// One batch a shard, so each takeover re-routes a single batch.
	ref := eventsIn(3, 1, even)
	ref = append(ref, eventsIn(3, 2, func(slot int) bool { return !even(slot) })...)
	r.Deliver(&fevent.Batch{SwitchID: 1, Timestamp: 3000, Events: ref[:3]})
	r.Deliver(&fevent.Batch{SwitchID: 2, Timestamp: 3000, Events: ref[3:]})
	deadline := time.Now().Add(10 * time.Second)
	for len(sinks[1].read()) == 0 || len(sinks[2].read()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the shards never read their batches")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Retire the shard with the higher sequence first: its batch goes
	// out first, and the ack of it covers the other's.
	hi, lo := uint32(1), uint32(2)
	if sinks[1].read()[0] < sinks[2].read()[0] {
		hi, lo = lo, hi
	}

	// The destination is unreachable until both takeovers have queued.
	destInfo := fabric.ShardInfo{ID: 3, Ingest: []string{pickAddr(t)}, Query: dest.QueryAddr(), Admin: dest.AdminAddr()}
	r.ApplyConfig(slotConfig(2, func(slot int) uint32 {
		if 2-uint32(slot%2) == lo {
			return lo
		}
		return 3
	}, info(lo), destInfo))
	r.ApplyConfig(slotConfig(3, func(int) uint32 { return 3 }, destInfo))

	ln, err := net.Listen("tcp", destInfo.Ingest[0])
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for first := true; ; first = false {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := net.Dial("tcp", dest.IngestAddr())
			if err != nil {
				conn.Close()
				continue
			}
			if first {
				var b fevent.Batch
				ack := make([]byte, wal.RecordHdrLen+8)
				if collector.ReadFrame(conn, &b) == nil && collector.WriteFrame(up, &b) == nil {
					if _, err := io.ReadFull(up, ack); err == nil {
						conn.Write(ack)
					}
				}
				conn.Close()
				up.Close()
				continue
			}
			go func() { io.Copy(up, conn); up.Close() }()
			go func() { io.Copy(conn, up); conn.Close() }()
		}
	}()
	// The clients gave up dialing before the listener came up: retry the
	// flush, as an exporter does, while they redial.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		err := r.Flush()
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("flush after both takeovers: %v", err)
		}
	}
	assertStores(t, "destination", dest.Store(), ref)
}

// TestRouterTakesOverDrainsOfADepartedShard: batches re-routed to a
// shard that leaves in turn, still unacked because it is unreachable,
// are taken over again and reach its successor.
func TestRouterTakesOverDrainsOfADepartedShard(t *testing.T) {
	succ := startShard(t, 3, t.TempDir())
	defer succ.Close()
	// Shards 1 and 2 exist only as addresses nothing listens on.
	dead := func(id uint32) fabric.ShardInfo {
		return fabric.ShardInfo{ID: id, Ingest: []string{pickAddr(t)}, Query: "127.0.0.1:1", Admin: "127.0.0.1:1"}
	}
	one, two := dead(1), dead(2)
	owner := func(id uint32) func(int) uint32 { return func(int) uint32 { return id } }
	r := fabric.NewRouter(slotConfig(1, owner(1), one, two, succ.Info()), fastRerouteClients)
	defer r.Close()
	var ref []fevent.Event
	for b := 0; b < 10; b++ {
		evs := make([]fevent.Event, 4)
		for i := range evs {
			evs[i] = eventN(b*4+i, uint16(b%3+1), sim.Time(4000+b))
		}
		r.Deliver(&fevent.Batch{SwitchID: uint16(b%3 + 1), Timestamp: sim.Time(4000 + b), Events: evs})
		ref = append(ref, evs...)
	}
	r.ApplyConfig(slotConfig(2, owner(2), two, succ.Info())) // shard 1's batches drain toward shard 2
	r.ApplyConfig(slotConfig(3, owner(3), succ.Info()))      // and shard 2 leaves before it ever answered
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after the second takeover: %v", err)
	}
	assertStores(t, "successor", succ.Store(), ref)
}
