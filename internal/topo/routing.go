package topo

import (
	"fmt"
	"math/bits"

	"netseer/internal/pkt"
)

// Routes holds, for every (switch, destination-host-IP) pair, the equal-
// cost next-hop ports. Flow-hash ECMP selects among them, so all packets
// of a flow follow one path while flows spread across paths.
//
// A destination resolves in a few word operations, the lookup every hop
// of every packet makes: a flat open-addressed index maps the IP to the
// host's ordinal, and a switch's row is indexed by that ordinal.
type Routes struct {
	topo *Topology
	// next[switchID][hostOrdinal] = eligible egress ports; nil for a
	// node that is not a switch.
	next [][][]int
	// salt[switchID] is the switch's ECMP salt: its ordinal among the
	// switches, the wire ID dataplane.BuildFabric gives it.
	salt []uint32
	// slots is the IP index: a power of two at least twice the host
	// count, so every probe chain ends at an empty slot (-1). A slot
	// holds a host ordinal; hostIP[ordinal] is the key it stands for.
	slots  []int32
	hostIP []uint32
	shift  uint8
}

// BuildRoutes computes all-pairs shortest-path ECMP routing for every host
// destination.
func BuildRoutes(t *Topology) *Routes {
	hosts := t.Hosts()
	lg := bits.Len(uint(max(2*len(hosts), 2) - 1))
	r := &Routes{
		topo:   t,
		next:   make([][][]int, len(t.nodes)),
		salt:   make([]uint32, len(t.nodes)),
		slots:  make([]int32, 1<<lg),
		hostIP: make([]uint32, len(hosts)),
		shift:  uint8(32 - lg),
	}
	for i := range r.slots {
		r.slots[i] = -1
	}
	switches := t.Switches()
	for i, sw := range switches {
		r.next[sw.ID] = make([][]int, len(hosts))
		r.salt[sw.ID] = uint32(i)
	}
	for o, h := range hosts {
		r.hostIP[o] = h.IP
		i, _ := r.slot(h.IP)
		r.slots[i] = int32(o)
		sets := t.nextHopSets(h.ID)
		for _, sw := range switches {
			r.next[sw.ID][o] = sets[sw.ID]
		}
	}
	return r
}

// slot returns the index slot i that holds ip and the host ordinal o in
// it, or the empty slot that ends ip's probe chain and o = -1: a
// multiply-shift of the address, then linear probing.
func (r *Routes) slot(ip uint32) (i uint32, o int32) {
	mask := uint32(len(r.slots) - 1)
	i = ip * 0x9e3779b1 >> r.shift
	for o = r.slots[i]; o >= 0 && r.hostIP[o] != ip; o = r.slots[i] {
		i = (i + 1) & mask
	}
	return i, o
}

// NextHops returns the equal-cost egress ports from switch sw toward the
// host owning dstIP, or nil for an address no host owns. The slice is
// shared; do not modify.
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
	if _, o := r.slot(dstIP); o >= 0 {
		return row[o]
	}
	return nil
}

// ECMPSelect picks the egress port for a flow among the equal-cost set
// from the flow's hash (same spreading discipline as a real switch:
// per-flow stable, per-switch salted so consecutive tiers do not
// polarize). It is the one ECMP function: the switch pipeline and PathOf
// both call it.
func ECMPSelect(hops []int, hash, salt uint32) (int, bool) {
	if len(hops) == 0 {
		return 0, false
	}
	h := hash ^ salt*0x9e3779b9
	return hops[h%uint32(len(hops))], true
}

// PathOf traces the port-by-port path a flow takes from src host to dst
// host under the current routes. Useful for tests and for the ground-truth
// ledger. It returns the sequence of node IDs visited (starting at src,
// ending at dst) or an error if routing is incomplete or loops.
func (r *Routes) PathOf(src NodeID, flow pkt.FlowKey) ([]NodeID, error) {
	path := []NodeID{src}
	hash := flow.Hash()
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
			port = up[int(hash%uint32(len(up)))].Num
		} else {
			hops := r.NextHops(cur, flow.DstIP)
			p, ok := ECMPSelect(hops, hash, r.salt[cur])
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
