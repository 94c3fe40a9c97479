// Package topo models network topologies: a generic node/link graph with
// per-node port numbering, a k-ary fat-tree builder, the paper's 10-switch
// testbed, and equal-cost shortest-path routing with flow-hash ECMP.
package topo

import (
	"fmt"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// NodeID identifies a node in a Topology.
type NodeID int

// Kind distinguishes switches from hosts.
type Kind uint8

// Node kinds.
const (
	KindSwitch Kind = iota
	KindHost
)

// Layer places a node in the fat-tree hierarchy (informational).
type Layer uint8

// Fat-tree layers.
const (
	LayerHost Layer = iota
	LayerEdge
	LayerAgg
	LayerCore
)

// String names the layer.
func (l Layer) String() string {
	switch l {
	case LayerHost:
		return "host"
	case LayerEdge:
		return "edge"
	case LayerAgg:
		return "agg"
	case LayerCore:
		return "core"
	default:
		return fmt.Sprintf("layer(%d)", uint8(l))
	}
}

// Node is one device.
type Node struct {
	ID    NodeID
	Kind  Kind
	Layer Layer
	Name  string
	Pod   int // -1 for core switches and unplaced nodes
	// IP is the host address (hosts only).
	IP uint32
}

// Port describes one attachment point of a node: the local port number,
// the peer node, the peer's port number, and the link index.
type Port struct {
	Num      int
	Peer     NodeID
	PeerPort int
	Link     int
}

// Link is a full-duplex connection between two node ports.
type Link struct {
	Index     int
	A, B      NodeID
	APort     int
	BPort     int
	Bps       float64
	PropDelay sim.Time
}

// Topology is an immutable-after-build graph.
type Topology struct {
	nodes  []Node
	links  []Link
	ports  [][]Port // per node, indexed by port number
	byIP   map[uint32]NodeID
	byName map[string]NodeID
}

// New returns an empty topology.
func New() *Topology {
	return &Topology{byIP: make(map[uint32]NodeID), byName: make(map[string]NodeID)}
}

// AddNode adds a node and returns its ID. Names must be unique.
func (t *Topology) AddNode(n Node) NodeID {
	if _, dup := t.byName[n.Name]; dup {
		panic(fmt.Sprintf("topo: duplicate node name %q", n.Name))
	}
	n.ID = NodeID(len(t.nodes))
	t.nodes = append(t.nodes, n)
	t.ports = append(t.ports, nil)
	t.byName[n.Name] = n.ID
	if n.Kind == KindHost && n.IP != 0 {
		t.byIP[n.IP] = n.ID
	}
	return n.ID
}

// AddLink connects a and b full-duplex, allocating the next port number on
// each side, and returns the link index.
func (t *Topology) AddLink(a, b NodeID, bps float64, propDelay sim.Time) int {
	if bps <= 0 {
		panic("topo: link bandwidth must be positive")
	}
	idx := len(t.links)
	ap := len(t.ports[a])
	bp := len(t.ports[b])
	t.links = append(t.links, Link{Index: idx, A: a, B: b, APort: ap, BPort: bp, Bps: bps, PropDelay: propDelay})
	t.ports[a] = append(t.ports[a], Port{Num: ap, Peer: b, PeerPort: bp, Link: idx})
	t.ports[b] = append(t.ports[b], Port{Num: bp, Peer: a, PeerPort: ap, Link: idx})
	return idx
}

// Node returns the node with the given ID.
func (t *Topology) Node(id NodeID) Node { return t.nodes[id] }

// Links returns all links. The slice is shared; do not modify.
func (t *Topology) Links() []Link { return t.links }

// Ports returns node id's ports in port-number order. Shared; do not
// modify.
func (t *Topology) Ports(id NodeID) []Port { return t.ports[id] }

// NodeByName finds a node by name.
func (t *Topology) NodeByName(name string) (Node, bool) {
	id, ok := t.byName[name]
	if !ok {
		return Node{}, false
	}
	return t.nodes[id], true
}

// NodeByIP finds the host owning an IP address.
func (t *Topology) NodeByIP(ip uint32) (Node, bool) {
	id, ok := t.byIP[ip]
	if !ok {
		return Node{}, false
	}
	return t.nodes[id], true
}

// Hosts returns all host nodes in ID order.
func (t *Topology) Hosts() []Node {
	var hs []Node
	for _, n := range t.nodes {
		if n.Kind == KindHost {
			hs = append(hs, n)
		}
	}
	return hs
}

// Switches returns all switch nodes in ID order.
func (t *Topology) Switches() []Node {
	var ss []Node
	for _, n := range t.nodes {
		if n.Kind == KindSwitch {
			ss = append(ss, n)
		}
	}
	return ss
}

// HostIP composes the address scheme used by the builders:
// 10.pod.tor.host.
func HostIP(pod, tor, host int) uint32 {
	return pkt.IP(10, byte(pod), byte(tor), byte(host+1))
}

// nextHopSets computes, for every node, the set of ports that lie on a
// shortest path toward dst, via reverse BFS from dst.
func (t *Topology) nextHopSets(dst NodeID) [][]int {
	const inf = int(1e9)
	dist := make([]int, len(t.nodes))
	for i := range dist {
		dist[i] = inf
	}
	dist[dst] = 0
	queue := []NodeID{dst}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, p := range t.ports[cur] {
			// Hosts do not transit traffic: never relax *through* a host
			// (but the destination itself may be a host).
			if t.nodes[cur].Kind == KindHost && cur != dst {
				continue
			}
			if dist[p.Peer] > dist[cur]+1 {
				dist[p.Peer] = dist[cur] + 1
				queue = append(queue, p.Peer)
			}
		}
	}
	next := make([][]int, len(t.nodes))
	for id := range t.nodes {
		if dist[id] == inf || NodeID(id) == dst {
			continue
		}
		for _, p := range t.ports[id] {
			if t.nodes[p.Peer].Kind == KindHost && p.Peer != dst {
				continue
			}
			if dist[p.Peer] == dist[id]-1 {
				next[id] = append(next[id], p.Num)
			}
		}
	}
	return next
}
