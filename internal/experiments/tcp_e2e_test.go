package experiments

import (
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// TestTCPExportEndToEnd runs a simulated testbed whose switch CPUs export
// over the real TCP path (collector.Client → collector.Server → Store),
// exactly like cmd/netsim against a running netseerd.
func TestTCPExportEndToEnd(t *testing.T) {
	store := collector.NewStore()
	srv, err := collector.NewServerConfig(store, "127.0.0.1:0", collector.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	client := collector.NewClientConfig(srv.Addr(), collector.ClientConfig{})
	defer client.Close()

	fab := dataplane.BuildFabric(topo.Testbed(), dataplane.Config{}, 21)
	s := fab.Sim
	hosts := host.Attach(fab, nic.Config{})
	nss := core.Deploy(fab, core.Config{}, client)
	// A blackhole and victim traffic.
	victim := hosts[31]
	tor := fab.HostPorts[victim.Node.ID][0].Switch
	tor.SetRouteOverride(victim.Node.IP, []int{})
	flow := pkt.FlowKey{SrcIP: hosts[0].Node.IP, DstIP: victim.Node.IP,
		SrcPort: 4242, DstPort: workload.DataPort, Proto: pkt.ProtoTCP}
	hosts[0].SendUDP(flow, 30, 724, 0)
	s.Run(2 * sim.Millisecond)
	core.Drain(s, nss)
	if err := client.Flush(); err != nil {
		t.Fatal(err)
	}

	// TCP ingestion is asynchronous; wait for the drop events to land.
	deadline := time.Now().Add(3 * time.Second)
	var events []fevent.Event
	for time.Now().Before(deadline) {
		events = store.Query(collector.Filter{Flow: &flow, Type: fevent.TypeDrop})
		if len(events) > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(events) == 0 {
		t.Fatalf("no drop events over TCP (store has %d total)", store.Len())
	}
	for _, e := range events {
		if e.DropCode != fevent.DropNoRoute {
			t.Errorf("unexpected event %v", e.String())
		}
		if e.SwitchID != tor.ID {
			t.Errorf("event attributed to switch %d, want %d", e.SwitchID, tor.ID)
		}
	}
	// And the query protocol works against the same store.
	qs, err := collector.NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	f, err := collector.ParseFilter([]string{"type=drop", "code=no-route"})
	if err != nil {
		t.Fatal(err)
	}
	if got := store.Query(f); len(got) == 0 {
		t.Error("parsed-filter query returned nothing")
	}
}
