package topo

import (
	"fmt"

	"netseer/internal/pkt"
)

// Routes holds, for every (switch, destination-host-IP) pair, the equal-
// cost next-hop ports. Flow-hash ECMP selects among them, so all packets
// of a flow follow one path while flows spread across paths.
type Routes struct {
	topo *Topology
	// next[switchID][dstHostID] = eligible egress ports.
	next map[NodeID][][]int
	// dstByIP resolves a destination address to its host node.
	dstByIP map[uint32]NodeID
}

// BuildRoutes computes all-pairs shortest-path ECMP routing for every host
// destination.
func BuildRoutes(t *Topology) *Routes {
	r := &Routes{
		topo:    t,
		next:    make(map[NodeID][][]int),
		dstByIP: make(map[uint32]NodeID),
	}
	for _, n := range t.nodes {
		if n.Kind == KindSwitch {
			r.next[n.ID] = make([][]int, len(t.nodes))
		}
	}
	for _, h := range t.Hosts() {
		r.dstByIP[h.IP] = h.ID
		sets := t.nextHopSets(h.ID)
		for _, sw := range t.Switches() {
			r.next[sw.ID][h.ID] = sets[sw.ID]
		}
	}
	return r
}

// NextHops returns the equal-cost egress ports from switch sw toward the
// host owning dstIP. The slice is shared; do not modify.
func (r *Routes) NextHops(sw NodeID, dstIP uint32) []int {
	return r.hops(r.next[sw], dstIP)
}

// From returns NextHops(sw, ·) with switch sw's routing row resolved once:
// the lookup a switch pipeline makes per packet.
func (r *Routes) From(sw NodeID) func(dstIP uint32) []int {
	row := r.next[sw]
	return func(dstIP uint32) []int { return r.hops(row, dstIP) }
}

func (r *Routes) hops(row [][]int, dstIP uint32) []int {
	dst, ok := r.dstByIP[dstIP]
	if !ok {
		return nil
	}
	return row[dst]
}

// ECMPSelect picks the egress port for a flow among the equal-cost set
// using the flow's symmetric-free hash (same spreading discipline as a real
// switch: per-flow stable, per-switch salted so consecutive tiers do not
// polarize).
func ECMPSelect(hops []int, flow pkt.FlowKey, salt uint32) (int, bool) {
	if len(hops) == 0 {
		return 0, false
	}
	h := flow.Hash() ^ salt*0x9e3779b9
	return hops[h%uint32(len(hops))], true
}

// PathOf traces the port-by-port path a flow takes from src host to dst
// host under the current routes. Useful for tests and for the ground-truth
// ledger. It returns the sequence of node IDs visited (starting at src,
// ending at dst) or an error if routing is incomplete or loops.
func (r *Routes) PathOf(src NodeID, flow pkt.FlowKey) ([]NodeID, error) {
	path := []NodeID{src}
	// First hop: host uplink. Hosts with several uplinks spread by flow
	// hash like a bonded NIC.
	cur := src
	for steps := 0; steps < 64; steps++ {
		node := r.topo.Node(cur)
		if node.Kind == KindHost && node.IP == flow.DstIP {
			return path, nil
		}
		var port int
		if node.Kind == KindHost {
			up := r.topo.Ports(cur)
			if len(up) == 0 {
				return nil, fmt.Errorf("topo: host %s has no uplink", node.Name)
			}
			port = up[int(flow.Hash()%uint32(len(up)))].Num
		} else {
			hops := r.NextHops(cur, flow.DstIP)
			p, ok := ECMPSelect(hops, flow, uint32(cur))
			if !ok {
				return nil, fmt.Errorf("topo: no route from %s to %s", node.Name, pkt.IPString(flow.DstIP))
			}
			port = p
		}
		cur = r.topo.Ports(cur)[port].Peer
		path = append(path, cur)
	}
	return nil, fmt.Errorf("topo: path exceeds 64 hops (loop?)")
}
