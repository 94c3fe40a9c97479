package topo

import (
	"slices"
	"testing"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func TestAddNodeAndLink(t *testing.T) {
	tp := New()
	a := tp.AddNode(Node{Kind: KindSwitch, Name: "a"})
	b := tp.AddNode(Node{Kind: KindSwitch, Name: "b"})
	idx := tp.AddLink(a, b, 100e9, sim.Microsecond)
	if idx != 0 {
		t.Fatalf("link index = %d", idx)
	}
	pa, pb := tp.Ports(a), tp.Ports(b)
	if len(pa) != 1 || len(pb) != 1 {
		t.Fatalf("ports = %d, %d", len(pa), len(pb))
	}
	if pa[0].Peer != b || pb[0].Peer != a {
		t.Error("peer wiring wrong")
	}
	if pa[0].PeerPort != 0 || pb[0].PeerPort != 0 {
		t.Error("peer port wrong")
	}
}

func TestDuplicateNamesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate name did not panic")
		}
	}()
	tp := New()
	tp.AddNode(Node{Name: "x"})
	tp.AddNode(Node{Name: "x"})
}

func TestNodeLookups(t *testing.T) {
	tp := New()
	tp.AddNode(Node{Kind: KindHost, Name: "h", IP: pkt.IP(10, 0, 0, 1)})
	if _, ok := tp.NodeByName("h"); !ok {
		t.Error("NodeByName failed")
	}
	if _, ok := tp.NodeByName("absent"); ok {
		t.Error("NodeByName found ghost")
	}
	if n, ok := tp.NodeByIP(pkt.IP(10, 0, 0, 1)); !ok || n.Name != "h" {
		t.Error("NodeByIP failed")
	}
	if _, ok := tp.NodeByIP(1); ok {
		t.Error("NodeByIP found ghost")
	}
}

func TestFatTreeShape(t *testing.T) {
	tp := FatTree(FatTreeConfig{K: 4})
	// Full k=4: 4 cores, 4 pods × (2 agg + 2 edge) = 16 pod switches,
	// 4 pods × 2 edges × 2 hosts = 16 hosts.
	if got := len(tp.Switches()); got != 20 {
		t.Errorf("switches = %d, want 20", got)
	}
	if got := len(tp.Hosts()); got != 16 {
		t.Errorf("hosts = %d, want 16", got)
	}
	// Every edge switch: 2 agg uplinks + 2 hosts = 4 ports.
	for _, n := range tp.Switches() {
		switch n.Layer {
		case LayerEdge:
			if len(tp.Ports(n.ID)) != 4 {
				t.Errorf("%s has %d ports, want 4", n.Name, len(tp.Ports(n.ID)))
			}
		case LayerAgg:
			if len(tp.Ports(n.ID)) != 4 {
				t.Errorf("%s has %d ports, want 4", n.Name, len(tp.Ports(n.ID)))
			}
		case LayerCore:
			if len(tp.Ports(n.ID)) != 4 {
				t.Errorf("%s has %d ports, want 4 (k pods)", n.Name, len(tp.Ports(n.ID)))
			}
		}
	}
}

func TestFatTreeOddKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("odd K did not panic")
		}
	}()
	FatTree(FatTreeConfig{K: 3})
}

func TestTestbedShape(t *testing.T) {
	tp := Testbed()
	if got := len(tp.Switches()); got != 10 {
		t.Errorf("testbed switches = %d, want 10 (paper §5)", got)
	}
	if got := len(tp.Hosts()); got != 32 {
		t.Errorf("testbed hosts = %d, want 32 logical servers", got)
	}
	for _, h := range tp.Hosts() {
		ports := tp.Ports(h.ID)
		if len(ports) != 1 {
			t.Fatalf("host %s has %d uplinks", h.Name, len(ports))
		}
		link := tp.Links()[ports[0].Link]
		if link.Bps != 25e9 {
			t.Errorf("host link speed = %g", link.Bps)
		}
	}
}

func TestHostIPsUnique(t *testing.T) {
	tp := Testbed()
	seen := make(map[uint32]string)
	for _, h := range tp.Hosts() {
		if other, dup := seen[h.IP]; dup {
			t.Fatalf("hosts %s and %s share IP %s", h.Name, other, pkt.IPString(h.IP))
		}
		seen[h.IP] = h.Name
	}
}

func TestRoutesReachAllPairs(t *testing.T) {
	tp := Testbed()
	routes := BuildRoutes(tp)
	hosts := tp.Hosts()
	for _, src := range hosts {
		for _, dst := range hosts {
			if src.ID == dst.ID {
				continue
			}
			flow := pkt.FlowKey{SrcIP: src.IP, DstIP: dst.IP, SrcPort: 1000, DstPort: 80, Proto: pkt.ProtoTCP}
			path, err := routes.PathOf(src.ID, flow)
			if err != nil {
				t.Fatalf("%s → %s: %v", src.Name, dst.Name, err)
			}
			if path[len(path)-1] != dst.ID {
				t.Fatalf("%s → %s: path ends at %v", src.Name, dst.Name, tp.Node(path[len(path)-1]).Name)
			}
		}
	}
}

func TestPathLengths(t *testing.T) {
	tp := Testbed()
	routes := BuildRoutes(tp)
	hosts := tp.Hosts()
	// Same edge: host-edge-host = 3 nodes. Same pod: 5. Cross pod: 7.
	var samEdge, samePod, crossPod Node
	src := hosts[0]
	for _, h := range hosts[1:] {
		sameTor := h.Pod == src.Pod && tp.Ports(h.ID)[0].Peer == tp.Ports(src.ID)[0].Peer
		switch {
		case sameTor && samEdge.Name == "":
			samEdge = h
		case h.Pod == src.Pod && !sameTor && samePod.Name == "":
			samePod = h
		case h.Pod != src.Pod && crossPod.Name == "":
			crossPod = h
		}
	}
	check := func(dst Node, wantLen int) {
		t.Helper()
		flow := pkt.FlowKey{SrcIP: src.IP, DstIP: dst.IP, SrcPort: 9, DstPort: 9, Proto: pkt.ProtoUDP}
		path, err := routes.PathOf(src.ID, flow)
		if err != nil {
			t.Fatal(err)
		}
		if len(path) != wantLen {
			names := make([]string, len(path))
			for i, id := range path {
				names[i] = tp.Node(id).Name
			}
			t.Errorf("%s → %s path %v has %d nodes, want %d", src.Name, dst.Name, names, len(path), wantLen)
		}
	}
	check(samEdge, 3)
	check(samePod, 5)
	check(crossPod, 7)
}

func TestECMPSpreadsFlows(t *testing.T) {
	tp := Testbed()
	routes := BuildRoutes(tp)
	hosts := tp.Hosts()
	var src, dst Node
	src = hosts[0]
	for _, h := range hosts {
		if h.Pod != src.Pod {
			dst = h
			break
		}
	}
	// Many flows between the same pair should use more than one path.
	paths := make(map[string]bool)
	for sp := 0; sp < 64; sp++ {
		flow := pkt.FlowKey{SrcIP: src.IP, DstIP: dst.IP, SrcPort: uint16(1000 + sp), DstPort: 80, Proto: pkt.ProtoTCP}
		path, err := routes.PathOf(src.ID, flow)
		if err != nil {
			t.Fatal(err)
		}
		key := ""
		for _, id := range path {
			key += tp.Node(id).Name + "/"
		}
		paths[key] = true
	}
	if len(paths) < 2 {
		t.Errorf("64 flows used %d distinct paths, want ECMP spreading", len(paths))
	}
}

func TestECMPStablePerFlow(t *testing.T) {
	hops := []int{1, 2, 3, 4}
	flow := pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: 6}
	a, _ := ECMPSelect(hops, flow.Hash(), 7)
	b, _ := ECMPSelect(hops, flow.Hash(), 7)
	if a != b {
		t.Error("ECMP not stable for a flow")
	}
	if _, ok := ECMPSelect(nil, flow.Hash(), 7); ok {
		t.Error("ECMP selected from empty set")
	}
}

// TestNextHopsUnknownIP checks the flat route index against a map-based
// reference at every (switch, host IP) of four topologies, and checks that
// an address no host owns — including ones whose probe starts inside an
// occupied chain — routes nowhere, without allocating.
func TestNextHopsUnknownIP(t *testing.T) {
	for name, tp := range map[string]*Topology{
		"fat-tree k=4": FatTree(FatTreeConfig{K: 4}),
		"fat-tree k=8": FatTree(FatTreeConfig{K: 8}),
		"testbed":      Testbed(),
		"line":         Line(3, 0, 0, 0),
	} {
		routes := BuildRoutes(tp)
		ref := make(map[uint32]NodeID)
		want := make(map[NodeID][][]int)
		for _, h := range tp.Hosts() {
			ref[h.IP] = h.ID
			want[h.ID] = tp.nextHopSets(h.ID)
		}
		unknown := []uint32{0, ^uint32(0), pkt.IP(192, 168, 1, 1)}
		for ip := uint32(1); len(unknown) < 3+32; ip += 0x01000193 {
			if _, owned := ref[ip]; !owned && routes.slots[ip*0x9e3779b1>>routes.shift] >= 0 {
				unknown = append(unknown, ip)
			}
		}
		for _, sw := range tp.Switches() {
			from := routes.From(sw.ID)
			for ip, dst := range ref {
				got := routes.NextHops(sw.ID, ip)
				if !slices.Equal(got, want[dst][sw.ID]) || !slices.Equal(from(ip), got) {
					t.Fatalf("%s: %s -> %s: hops %v, From %v, want %v", name, sw.Name, pkt.IPString(ip), got, from(ip), want[dst][sw.ID])
				}
			}
			for _, ip := range unknown {
				if hops := routes.NextHops(sw.ID, ip); hops != nil {
					t.Fatalf("%s: %s routes unknown %s to %v", name, sw.Name, pkt.IPString(ip), hops)
				}
			}
		}
		sw, ip := tp.Switches()[0].ID, tp.Hosts()[0].IP
		if n := testing.AllocsPerRun(100, func() { routes.NextHops(sw, ip); routes.NextHops(sw, unknown[3]) }); n != 0 {
			t.Errorf("%s: NextHops allocates %.1f times a call", name, n)
		}
	}
}

func TestLineTopology(t *testing.T) {
	tp := Line(3, 0, 0, 0)
	if len(tp.Switches()) != 3 || len(tp.Hosts()) != 2 {
		t.Fatalf("line: %d switches %d hosts", len(tp.Switches()), len(tp.Hosts()))
	}
	routes := BuildRoutes(tp)
	a, _ := tp.NodeByName("hA")
	b, _ := tp.NodeByName("hB")
	flow := pkt.FlowKey{SrcIP: a.IP, DstIP: b.IP, SrcPort: 1, DstPort: 2, Proto: pkt.ProtoUDP}
	path, err := routes.PathOf(a.ID, flow)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 5 { // hA sw0 sw1 sw2 hB
		t.Errorf("line path length = %d, want 5", len(path))
	}
}

func TestLayerString(t *testing.T) {
	for l, want := range map[Layer]string{LayerHost: "host", LayerEdge: "edge", LayerAgg: "agg", LayerCore: "core", Layer(9): "layer(9)"} {
		if l.String() != want {
			t.Errorf("Layer(%d).String() = %q", uint8(l), l.String())
		}
	}
}

func BenchmarkBuildRoutesTestbed(b *testing.B) {
	tp := Testbed()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		BuildRoutes(tp)
	}
}

func BenchmarkPathOf(b *testing.B) {
	tp := Testbed()
	routes := BuildRoutes(tp)
	hosts := tp.Hosts()
	flow := pkt.FlowKey{SrcIP: hosts[0].IP, DstIP: hosts[31].IP, SrcPort: 5, DstPort: 6, Proto: pkt.ProtoTCP}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := routes.PathOf(hosts[0].ID, flow); err != nil {
			b.Fatal(err)
		}
	}
}
