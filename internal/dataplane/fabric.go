package dataplane

import (
	"fmt"

	"netseer/internal/fevent"
	"netseer/internal/link"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// Deferred is a link endpoint whose device is attached after the link is
// built (hosts attach to an already-wired fabric). Frames arriving before
// attachment are dropped.
type Deferred struct {
	Dev link.Device
}

// Receive implements link.Device by delegation.
func (d *Deferred) Receive(p *pkt.Packet, port int) {
	if d.Dev != nil {
		d.Dev.Receive(p, port)
	}
}

// HostAttach describes where a host node plugs into the fabric.
type HostAttach struct {
	Node topo.NodeID
	// Link is the host's access link; the host transmits from the A side
	// iff FromA.
	Link  *link.Link
	FromA bool
	// Slot receives the host's device.
	Slot *Deferred
	// SwitchPort is the ToR-side port number of the access link.
	SwitchPort int
	// Switch is the ToR.
	Switch *Switch
}

// Fabric is a fully wired set of switches and links following a topology.
type Fabric struct {
	Sim    *sim.Simulator
	Topo   *topo.Topology
	Routes *topo.Routes
	GT     *GroundTruth

	// Switches maps topology node → simulated switch.
	Switches map[topo.NodeID]*Switch
	// SwitchByID maps the wire-format switch ID back to the switch.
	SwitchByID map[uint16]*Switch
	// nodes maps the wire-format switch ID back to its topology node.
	nodes []topo.NodeID
	// Links is indexed by topology link index.
	Links []*link.Link
	// HostPorts maps each host node to its attach points.
	HostPorts map[topo.NodeID][]HostAttach
	// Pool recycles and numbers the fabric's packets: hosts take theirs
	// from it, and switches, links and hosts hand back every packet that
	// leaves the fabric (see pkt.Pool).
	Pool *pkt.Pool

	// lossHooks observe every in-flight frame loss (data-plane kinds
	// only), with the upstream switch when the transmitter was a switch.
	lossHooks []func(upstream *Switch, p *pkt.Packet, corrupted bool)
}

// AddLinkLossHook registers an observer for in-flight frame losses.
// upstream is nil when a host NIC transmitted the frame.
func (f *Fabric) AddLinkLossHook(fn func(upstream *Switch, p *pkt.Packet, corrupted bool)) {
	f.lossHooks = append(f.lossHooks, fn)
}

// BuildFabric instantiates switches and links for every node and edge of
// the topology on a new simulator, with the topology's routes and a new
// ground-truth ledger. Host nodes get Deferred endpoints to be claimed
// via HostPorts. seed drives link fault processes.
func BuildFabric(tp *topo.Topology, cfg Config, seed uint64) *Fabric {
	s, routes, gt := sim.New(), topo.BuildRoutes(tp), NewGroundTruth()
	f := &Fabric{
		Sim: s, Topo: tp, Routes: routes, GT: gt,
		Switches:   make(map[topo.NodeID]*Switch),
		SwitchByID: make(map[uint16]*Switch),
		HostPorts:  make(map[topo.NodeID][]HostAttach),
		Pool:       pkt.NewPool(),
	}
	// Switch devices. Wire-format IDs are dense over switches.
	nextID := uint16(0)
	for _, node := range tp.Switches() {
		id := nextID
		nextID++
		sw := NewSwitch(s, id, node.Name, cfg, routes.From(node.ID), gt)
		sw.pool = f.Pool
		f.Switches[node.ID] = sw
		f.SwitchByID[id] = sw
		f.nodes = append(f.nodes, node.ID)
	}
	// Links. Port numbers in the Switch must match the topology's port
	// numbering, which holds because we add links in topology order and
	// AddPort allocates sequentially. Each direction draws faults from its
	// own stream so the two directions' outcomes are independent of how
	// their frames interleave.
	for _, tl := range tp.Links() {
		rngAB := sim.NewStream(seed, fmt.Sprintf("link-%d-ab", tl.Index))
		rngBA := sim.NewStream(seed, fmt.Sprintf("link-%d-ba", tl.Index))
		aNode, bNode := tp.Node(tl.A), tp.Node(tl.B)
		var aEnd, bEnd link.Endpoint
		var aslot, bslot *Deferred
		if aNode.Kind == topo.KindHost {
			aslot = &Deferred{}
			aEnd = link.Endpoint{Dev: aslot, Port: 0}
		}
		if bNode.Kind == topo.KindHost {
			bslot = &Deferred{}
			bEnd = link.Endpoint{Dev: bslot, Port: 0}
		}
		// Construct the link with placeholder endpoints, then fill in
		// switch ports (which need the link first).
		l := link.NewSplit(s, link.Endpoint{Dev: &Deferred{}, Port: 0},
			link.Endpoint{Dev: &Deferred{}, Port: 0}, tl.PropDelay, rngAB, rngBA)
		l.Pool = f.Pool
		if aNode.Kind == topo.KindSwitch {
			sw := f.Switches[tl.A]
			port := sw.AddPort(l, true, tl.Bps)
			if port != tl.APort {
				panic(fmt.Sprintf("dataplane: port numbering diverged: %s port %d vs topo %d", aNode.Name, port, tl.APort))
			}
			aEnd = link.Endpoint{Dev: sw, Port: port}
		}
		if bNode.Kind == topo.KindSwitch {
			sw := f.Switches[tl.B]
			port := sw.AddPort(l, false, tl.Bps)
			if port != tl.BPort {
				panic(fmt.Sprintf("dataplane: port numbering diverged: %s port %d vs topo %d", bNode.Name, port, tl.BPort))
			}
			bEnd = link.Endpoint{Dev: sw, Port: port}
		}
		l.SetEndpoint(true, aEnd)
		l.SetEndpoint(false, bEnd)
		// Ground truth for in-flight losses: attribute to the upstream
		// transmitter (the side that sent the frame), matching where
		// NetSeer's ring-buffer recovery reports them.
		var swA, swB *Switch
		if aNode.Kind == topo.KindSwitch {
			swA = f.Switches[tl.A]
		}
		if bNode.Kind == topo.KindSwitch {
			swB = f.Switches[tl.B]
		}
		l.OnLost = func(fromA bool, p *pkt.Packet, corrupted bool) {
			if p.Kind != pkt.KindData && p.Kind != pkt.KindProbe {
				return
			}
			up := swA
			if !fromA {
				up = swB
			}
			if up != nil {
				gt.note(FlowEventKey{SwitchID: up.ID, Type: fevent.TypeDrop, Flow: p.Flow, Code: fevent.DropInterSwitch}, s.Now(), 0, false)
			}
			for _, fn := range f.lossHooks {
				fn(up, p, corrupted)
			}
		}
		f.Links = append(f.Links, l)
		if aNode.Kind == topo.KindHost {
			f.HostPorts[tl.A] = append(f.HostPorts[tl.A], HostAttach{
				Node: tl.A, Link: l, FromA: true, Slot: aslot,
				SwitchPort: tl.BPort, Switch: f.Switches[tl.B],
			})
		}
		if bNode.Kind == topo.KindHost {
			f.HostPorts[tl.B] = append(f.HostPorts[tl.B], HostAttach{
				Node: tl.B, Link: l, FromA: false, Slot: bslot,
				SwitchPort: tl.APort, Switch: f.Switches[tl.A],
			})
		}
	}
	return f
}

// AttachHost plugs a device into every access link of a host node.
func (f *Fabric) AttachHost(node topo.NodeID, dev link.Device) {
	attaches := f.HostPorts[node]
	if len(attaches) == 0 {
		panic(fmt.Sprintf("dataplane: node %d has no host attach points", node))
	}
	for _, a := range attaches {
		a.Slot.Dev = dev
	}
}

// Node returns the topology node of one of the fabric's switches.
func (f *Fabric) Node(sw *Switch) topo.NodeID { return f.nodes[sw.ID] }

// EachSwitch runs fn over all switches in wire-ID order.
func (f *Fabric) EachSwitch(fn func(*Switch)) {
	for id := uint16(0); int(id) < len(f.SwitchByID); id++ {
		fn(f.SwitchByID[id])
	}
}

// LinkBetween returns the link connecting two named nodes, or nil.
func (f *Fabric) LinkBetween(nameA, nameB string) *link.Link {
	a, okA := f.Topo.NodeByName(nameA)
	b, okB := f.Topo.NodeByName(nameB)
	if !okA || !okB {
		return nil
	}
	for _, tl := range f.Topo.Links() {
		if (tl.A == a.ID && tl.B == b.ID) || (tl.A == b.ID && tl.B == a.ID) {
			return f.Links[tl.Index]
		}
	}
	return nil
}
