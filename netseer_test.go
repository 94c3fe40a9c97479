package netseer

import (
	"testing"

	"netseer/internal/fevent"
)

func TestQuickstartFlow(t *testing.T) {
	net := NewNetwork(NetworkConfig{Topology: TopoLine2, Seed: 1})
	a, b := net.Host("hA"), net.Host("hB")
	if a.Node.IP != IP(10, 0, 0, 1) {
		t.Errorf("hA is at %#x, want 10.0.0.1", a.Node.IP)
	}
	// Blackhole hB on sw0 and send traffic.
	net.Switch("sw0").SetRouteOverride(b.Node.IP, []int{})
	flow := net.SendBurst(a, b, 1000, 10, 724)
	net.Run(Millisecond)
	if now := net.Sim().Now(); now != Millisecond {
		t.Errorf("clock after Run(1 ms) reads %v", now)
	}
	net.Close()
	events := net.Events(Query{Flow: &flow})
	if len(events) == 0 {
		t.Fatal("no events for blackholed flow")
	}
	if n := net.Store().Len(); n < len(events) {
		t.Errorf("the store holds %d events, fewer than the flow's %d", n, len(events))
	}
	found := false
	for _, e := range events {
		if e.Type == EventDrop && e.DropCode == fevent.DropNoRoute {
			found = true
		}
	}
	if !found {
		t.Errorf("no no-route drop among %d events", len(events))
	}
	// Ground truth sees the same drop: one flow event of ten packets.
	if gt := net.GroundTruth().Events; len(gt) != 1 || gt[0].Key.Code != fevent.DropNoRoute || gt[0].Packets != 10 {
		t.Errorf("ground truth = %+v", gt)
	}
	// The facade's totals carry every per-switch counter.
	if st := net.NetSeerStats(); st.DedupBytes == 0 || st.ExtractedBytes == 0 || st.ExportedBatches == 0 {
		t.Errorf("stats = %+v, want the dedup, extraction and export counters", st)
	}
}

func TestTestbedTopology(t *testing.T) {
	net := NewNetwork(NetworkConfig{Seed: 2})
	if got := len(net.Hosts()); got != 32 {
		t.Errorf("testbed hosts = %d, want 32", got)
	}
	// Known names resolve.
	net.Host("h0-0-0")
	net.Switch("core0")
	net.Link("agg0-0", "core0")
	net.Close()
}

func TestUnknownNamesPanic(t *testing.T) {
	net := NewNetwork(NetworkConfig{Topology: TopoLine2, Seed: 1})
	defer net.Close()
	for _, f := range []func(){
		func() { net.Host("nope") },
		func() { net.Switch("nope") },
		func() { net.Switch("hA") },
		func() { net.Link("hA", "hB") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("lookup of unknown name did not panic")
				}
			}()
			f()
		}()
	}
}

func TestFatTreeK4Network(t *testing.T) {
	net := NewNetwork(NetworkConfig{Topology: TopoFatTreeK4, Seed: 5})
	hosts := net.Hosts()
	if len(hosts) != 16 {
		t.Fatalf("k=4 hosts = %d", len(hosts))
	}
	flow := net.SendBurst(hosts[0], hosts[15], 1234, 20, 1000)
	net.Run(Millisecond)
	net.Close()
	// Path-change events trace the flow across its hops.
	events := net.Events(Query{Flow: &flow, Type: EventPathChange})
	if len(events) == 0 {
		t.Error("no path events for a cross-pod flow")
	}
	stats := net.NetSeerStats()
	if stats.RawPackets == 0 {
		t.Error("no traffic observed")
	}
}

func TestRepeatedRunHorizons(t *testing.T) {
	net := NewNetwork(NetworkConfig{Topology: TopoLine2, Seed: 1})
	a, b := net.Host("hA"), net.Host("hB")
	net.SendBurst(a, b, 1, 5, 300)
	net.Run(Millisecond)
	n1 := len(net.Events(Query{}))
	net.SendBurst(a, b, 2, 5, 300)
	net.Run(2 * Millisecond)
	net.Close()
	n2 := len(net.Events(Query{}))
	if n2 <= n1 {
		t.Errorf("events did not grow across horizons: %d → %d", n1, n2)
	}
}
