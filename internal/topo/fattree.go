package topo

import (
	"fmt"

	"netseer/internal/sim"
)

// FatTreeConfig parameterizes the fat-tree builders.
type FatTreeConfig struct {
	// K is the arity; must be even and >= 2. A full fat-tree has K pods,
	// K/2 edge + K/2 agg switches per pod, (K/2)² cores, K/2 hosts per
	// edge.
	K int
	// Pods optionally limits the number of populated pods (0 = K).
	Pods int
	// HostsPerEdge optionally overrides hosts per edge switch (0 = K/2).
	HostsPerEdge int
	// Cores optionally limits the number of core switches (0 = (K/2)²).
	// With fewer cores than (K/2)², core c connects to aggregation switch
	// c mod K/2 of every pod, keeping every agg reachable.
	Cores int
}

// Link defaults: switch-switch speed, host-edge speed and per-link
// propagation delay.
const (
	defaultFabricBps = 100e9
	defaultHostBps   = 25e9
	defaultPropDelay = sim.Microsecond
)

func (c FatTreeConfig) withDefaults() FatTreeConfig {
	if c.Pods <= 0 {
		c.Pods = c.K
	}
	if c.HostsPerEdge <= 0 {
		c.HostsPerEdge = c.K / 2
	}
	return c
}

// FatTree builds a k-ary fat-tree (Al-Fares et al.), optionally with fewer
// populated pods. Core switch c (0-indexed, grouped in K/2 groups of K/2)
// connects to aggregation switch c/(K/2) of every pod.
func FatTree(cfg FatTreeConfig) *Topology {
	if cfg.K < 2 || cfg.K%2 != 0 {
		panic(fmt.Sprintf("topo: fat-tree K must be even and >= 2, got %d", cfg.K))
	}
	cfg = cfg.withDefaults()
	if cfg.Pods > cfg.K {
		panic(fmt.Sprintf("topo: %d pods exceeds K=%d", cfg.Pods, cfg.K))
	}
	t := New()
	half := cfg.K / 2
	nCores := cfg.Cores
	if nCores <= 0 {
		nCores = half * half
	}
	if nCores > half*half {
		panic(fmt.Sprintf("topo: %d cores exceeds (K/2)²=%d", nCores, half*half))
	}
	cores := make([]NodeID, nCores)
	for i := range cores {
		cores[i] = t.AddNode(Node{Kind: KindSwitch, Layer: LayerCore, Name: fmt.Sprintf("core%d", i), Pod: -1})
	}
	for p := 0; p < cfg.Pods; p++ {
		aggs := make([]NodeID, half)
		edges := make([]NodeID, half)
		for a := 0; a < half; a++ {
			aggs[a] = t.AddNode(Node{Kind: KindSwitch, Layer: LayerAgg, Name: fmt.Sprintf("agg%d-%d", p, a), Pod: p})
		}
		for e := 0; e < half; e++ {
			edges[e] = t.AddNode(Node{Kind: KindSwitch, Layer: LayerEdge, Name: fmt.Sprintf("edge%d-%d", p, e), Pod: p})
		}
		// Agg ↔ core. Full fat-tree: agg a owns cores [a*half, (a+1)*half).
		// Reduced cores: core c attaches to agg c mod half.
		if nCores == half*half {
			for a := 0; a < half; a++ {
				for c := 0; c < half; c++ {
					t.AddLink(aggs[a], cores[a*half+c], defaultFabricBps, defaultPropDelay)
				}
			}
		} else {
			for c := 0; c < nCores; c++ {
				t.AddLink(aggs[c%half], cores[c], defaultFabricBps, defaultPropDelay)
			}
		}
		// Edge ↔ agg: full bipartite within the pod.
		for e := 0; e < half; e++ {
			for a := 0; a < half; a++ {
				t.AddLink(edges[e], aggs[a], defaultFabricBps, defaultPropDelay)
			}
		}
		// Hosts.
		for e := 0; e < half; e++ {
			for h := 0; h < cfg.HostsPerEdge; h++ {
				id := t.AddNode(Node{
					Kind: KindHost, Layer: LayerHost, Pod: p,
					Name: fmt.Sprintf("h%d-%d-%d", p, e, h),
					IP:   HostIP(p, e, h),
				})
				t.AddLink(id, edges[e], defaultHostBps, defaultPropDelay)
			}
		}
	}
	return t
}

// Testbed reproduces the paper's evaluation fabric (§5): 10 Tofino
// switches in a 4-ary fat-tree arrangement (2 cores, 2 pods × 2 agg +
// 2 edge) and 32 logical servers, 8 per edge switch, each with a 25 Gb/s
// uplink. Switch-switch links run at 100 Gb/s.
func Testbed() *Topology {
	return FatTree(FatTreeConfig{K: 4, Pods: 2, Cores: 2, HostsPerEdge: 8})
}

// Line builds a chain host — sw0 — sw1 — … — sw(n-1) — host, the minimal
// fixture for inter-switch experiments and the quickstart example.
func Line(nSwitches int, fabricBps, hostBps float64, propDelay sim.Time) *Topology {
	if nSwitches < 1 {
		panic("topo: line needs at least one switch")
	}
	if fabricBps <= 0 {
		fabricBps = defaultFabricBps
	}
	if hostBps <= 0 {
		hostBps = defaultHostBps
	}
	if propDelay <= 0 {
		propDelay = defaultPropDelay
	}
	t := New()
	sws := make([]NodeID, nSwitches)
	for i := range sws {
		sws[i] = t.AddNode(Node{Kind: KindSwitch, Layer: LayerEdge, Name: fmt.Sprintf("sw%d", i), Pod: 0})
	}
	for i := 0; i+1 < nSwitches; i++ {
		t.AddLink(sws[i], sws[i+1], fabricBps, propDelay)
	}
	a := t.AddNode(Node{Kind: KindHost, Layer: LayerHost, Name: "hA", Pod: 0, IP: HostIP(0, 0, 0)})
	b := t.AddNode(Node{Kind: KindHost, Layer: LayerHost, Name: "hB", Pod: 0, IP: HostIP(0, byte2int(nSwitches-1), 0)})
	t.AddLink(a, sws[0], hostBps, propDelay)
	t.AddLink(b, sws[nSwitches-1], hostBps, propDelay)
	return t
}

func byte2int(v int) int { return v & 0xff }
