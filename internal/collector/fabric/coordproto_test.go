// Coordinator line-protocol tests: the same join/leave/retire lifecycle
// the chaos tests drive in-process, but over the wire through the
// exported client helpers — plus the protocol's error surface and the
// fabric's self-telemetry registration.
package fabric_test

import (
	"bufio"
	"fmt"
	"net"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/obs"
)

// startShardReg is startShard with a per-shard metrics registry (one
// each: the store's unlabelled instruments collide on a shared one).
func startShardReg(t *testing.T, id uint32, dir string, reg *obs.Registry) *fabric.ShardNode {
	t.Helper()
	n, err := fabric.StartShard(fabric.ShardOptions{
		ID: id, Dir: dir,
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
	})
	if err != nil {
		t.Fatalf("start shard %d: %v", id, err)
	}
	n.RegisterMetrics(reg)
	return n
}

func mustRender(t *testing.T, reg *obs.Registry) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	return sb.String()
}

// TestCoordinatorWireProtocol walks a two-shard fabric through its whole
// membership lifecycle using only the network protocol: bootstrap join,
// second join, config fetch, refused retire, demote, drain, retire —
// with the exactly-once audit after every published epoch.
func TestCoordinatorWireProtocol(t *testing.T) {
	base := t.TempDir()
	regC := obs.NewRegistry()
	coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath:  filepath.Join(base, "coord.json"),
		ListenAddr: "127.0.0.1:0",
		OpTimeout:  5 * time.Second,
		Registry:   regC,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	addr := coord.Addr()

	reg1, reg2 := obs.NewRegistry(), obs.NewRegistry()
	s1 := startShardReg(t, 1, filepath.Join(base, "s1"), reg1)
	defer s1.Close()
	s2 := startShardReg(t, 2, filepath.Join(base, "s2"), reg2)
	defer s2.Close()

	cfg1, err := fabric.RequestJoin(addr, s1.Info(), 30*time.Second)
	if err != nil {
		t.Fatalf("bootstrap join: %v", err)
	}
	for s, owner := range cfg1.Slots {
		if owner != 1 {
			t.Fatalf("after bootstrap join, slot %d owned by %d, want 1", s, owner)
		}
	}
	cfg2, err := fabric.RequestJoin(addr, s2.Info(), 30*time.Second)
	if err != nil {
		t.Fatalf("second join: %v", err)
	}
	if cfg2.Epoch <= cfg1.Epoch || len(cfg2.Shards) != 2 {
		t.Fatalf("second join published epoch %d with %d shards, want epoch > %d with 2", cfg2.Epoch, len(cfg2.Shards), cfg1.Epoch)
	}
	if _, err := fabric.RequestJoin(addr, s1.Info(), 5*time.Second); err == nil {
		t.Fatal("re-joining an existing shard ID succeeded")
	}

	fetched, err := fabric.FetchConfig(addr, 5*time.Second)
	if err != nil {
		t.Fatalf("fetch config: %v", err)
	}
	if fetched.Epoch != cfg2.Epoch {
		t.Fatalf("fetched epoch %d, want %d", fetched.Epoch, cfg2.Epoch)
	}

	r := fabric.NewRouter(fetched, collector.ClientConfig{})
	defer r.Close()
	regR := obs.NewRegistry()
	r.RegisterMetrics(regR)
	ls := &loadState{}
	ls.deliver(r, 40, 5)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush: %v", err)
	}
	audit(t, ls, fetched)

	// Retiring a shard that still owns slots must be refused: its slots
	// have nowhere sanctioned to go yet.
	if _, err := fabric.RequestRetire(addr, 2, 30*time.Second); err == nil {
		t.Fatal("retire of a slot-owning shard succeeded; Leave must come first")
	}

	demoted, err := fabric.RequestLeave(addr, 2, 30*time.Second)
	if err != nil {
		t.Fatalf("leave: %v", err)
	}
	if _, ok := demoted.Shard(2); !ok {
		t.Fatal("demoted shard dropped from membership before retire")
	}
	for s, owner := range demoted.Slots {
		if owner == 2 {
			t.Fatalf("demoted shard still owns slot %d", s)
		}
	}
	r.ApplyConfig(demoted)
	ls.deliver(r, 10, 5)
	if err := r.Flush(); err != nil {
		t.Fatalf("flush after demote: %v", err)
	}

	retired, err := fabric.RequestRetire(addr, 2, 30*time.Second)
	if err != nil {
		t.Fatalf("retire: %v", err)
	}
	if _, ok := retired.Shard(2); ok {
		t.Fatal("retired shard still in membership")
	}
	r.ApplyConfig(retired)
	audit(t, ls, retired)
	if got := len(s2.Store().Query(collector.Filter{})); got != 0 {
		t.Fatalf("retired shard still holds %d events", got)
	}

	if _, err := fabric.RequestLeave(addr, 99, 5*time.Second); err == nil {
		t.Fatal("leave of an unknown shard succeeded")
	}

	// The per-shard and per-router instruments came up with the fabric.
	if text := mustRender(t, reg1); !strings.Contains(text, obs.MFabricEpoch) {
		t.Error("shard registry missing the fabric epoch gauge")
	}
	if text := mustRender(t, regR); !strings.Contains(text, obs.MFabricRoutedBatches) {
		t.Error("router registry missing the routed-batches counter")
	}
	if text := mustRender(t, regC); !strings.Contains(text, obs.MFabricRebalances) {
		t.Error("coordinator registry missing the rebalances counter")
	}
}

// TestCoordinatorProtocolErrorSurface sends the malformed and unknown
// requests a confused client might: each gets a JSON error line back on
// the same connection, never a hang or a dropped conn.
func TestCoordinatorProtocolErrorSurface(t *testing.T) {
	base := t.TempDir()
	coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath:  filepath.Join(base, "coord.json"),
		ListenAddr: "127.0.0.1:0",
		OpTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()

	conn, err := net.Dial("tcp", coord.Addr())
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

	if resp := roundTrip(`{"op":"bogus"}`); !strings.Contains(resp, "unknown op") {
		t.Fatalf("unknown op response %q lacks the error", resp)
	}
	if resp := roundTrip(`{not json`); !strings.Contains(resp, "bad request") {
		t.Fatalf("malformed request response %q lacks the error", resp)
	}
	if resp := roundTrip(`{"op":"join"}`); !strings.Contains(resp, "missing shard") {
		t.Fatalf("shard-less join response %q lacks the error", resp)
	}
	// The connection survived all three errors: a real op still works.
	if resp := roundTrip(`{"op":"status"}`); !strings.Contains(resp, `"ok":true`) {
		t.Fatalf("status after errors = %q, want ok", resp)
	}
	if resp := roundTrip(`{"op":"config"}`); !strings.Contains(resp, `"config"`) {
		t.Fatalf("config after errors = %q, want a config", resp)
	}
}

// TestCloseReleasesIdleClients is the regression test for Close waiting
// on clients blocked reading their next request: the coordinator and
// every shard listener return from Close within a second while a client
// holds an idle connection after one round trip.
func TestCloseReleasesIdleClients(t *testing.T) {
	base := t.TempDir()
	for _, tc := range []struct {
		name  string
		start func() (addr, req string, close func() error)
	}{
		{"coordinator", func() (string, string, func() error) {
			c := startCoordinator(t, filepath.Join(base, "coord.json"), nil, time.Second)
			return c.Addr(), `{"op":"config"}`, c.Close
		}},
		{"shard admin", func() (string, string, func() error) {
			n := startShard(t, 1, filepath.Join(base, "s1"))
			return n.AdminAddr(), `{"op":"ping"}`, n.Close
		}},
		{"shard query", func() (string, string, func() error) {
			n := startShard(t, 2, filepath.Join(base, "s2"))
			return n.QueryAddr(), "count", n.Close
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			addr, req, closeFn := tc.start()
			conn, err := net.Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(5 * time.Second))
			fmt.Fprintln(conn, req)
			sc := bufio.NewScanner(conn)
			if !sc.Scan() {
				t.Fatalf("no answer to %s: %v", req, sc.Err())
			}
			done := make(chan struct{}, 1)
			go func() {
				closeFn()
				done <- struct{}{}
			}()
			select {
			case <-done:
			case <-time.After(time.Second):
				t.Fatal("Close still blocked after 1s with an idle client attached")
			}
		})
	}
}
