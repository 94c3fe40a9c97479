// Package netseer is the public facade of the NetSeer reproduction — a
// flow event telemetry (FET) system in the spirit of "Flow Event
// Telemetry on Programmable Data Plane" (SIGCOMM 2020).
//
// The package wires the building blocks under internal/ into a
// ready-to-use monitored network: build a topology, attach hosts, enable
// NetSeer on every switch, drive traffic, inject faults, and query the
// resulting flow events:
//
//	net := netseer.NewNetwork(netseer.NetworkConfig{Seed: 1})
//	a, b := net.Host("h0-0-0"), net.Host("h1-1-7")
//	net.Run(5 * netseer.Millisecond)
//	events := net.Events(netseer.Query{Flow: &flow})
//
// The full evaluation harness (every table and figure of the paper's §5)
// lives in internal/experiments and is exposed through cmd/repro.
package netseer

import (
	"fmt"

	"netseer/internal/collector"
	"netseer/internal/core"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/link"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
	"netseer/internal/workload"
)

// Re-exported time units for configuration convenience.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Time is a simulated-time instant/duration in nanoseconds.
type Time = sim.Time

// FlowKey identifies a flow by its IPv4 5-tuple.
type FlowKey = pkt.FlowKey

// Event is one reported flow event.
type Event = fevent.Event

// Event types.
const (
	EventDrop        = fevent.TypeDrop
	EventCongestion  = fevent.TypeCongestion
	EventPathChange  = fevent.TypePathChange
	EventPause       = fevent.TypePause
	EventHeavyHitter = fevent.TypeHeavyHitter
	EventTopKChurn   = fevent.TypeTopKChurn
	EventAggSpike    = fevent.TypeAggSpike
)

// Query filters stored events.
type Query = collector.Filter

// IP composes an IPv4 address from dotted-quad octets.
func IP(a, b, c, d byte) uint32 { return pkt.IP(a, b, c, d) }

// Topology selects the fabric shape.
type Topology int

// Topologies.
const (
	// TopoTestbed is the paper's evaluation fabric: 10 switches in a
	// 4-ary fat-tree arrangement with 32 × 25 Gb/s hosts.
	TopoTestbed Topology = iota
	// TopoLine2 is a minimal 2-switch line with one host on each end.
	TopoLine2
	// TopoFatTreeK4 is a full 4-ary fat-tree (20 switches, 16 hosts).
	TopoFatTreeK4
)

// NetworkConfig parameterizes NewNetwork. Zero values take sensible
// defaults.
type NetworkConfig struct {
	Topology Topology
	Seed     uint64
	// Switch is the data-plane configuration shared by all switches.
	Switch dataplane.Config
	// NetSeer configures the telemetry on every switch.
	NetSeer core.Config
}

// Network is a fully assembled, monitored, simulated network.
type Network struct {
	fab   *dataplane.Fabric
	store *collector.Store
	ns    []*core.NetSeerSwitch
	hosts []*host.Host // topology order
}

// NewNetwork builds the selected topology with hosts on every host node
// and NetSeer on every switch, reporting to an in-process collector.
func NewNetwork(cfg NetworkConfig) *Network {
	var tp *topo.Topology
	switch cfg.Topology {
	case TopoLine2:
		tp = topo.Line(2, 0, 0, 0)
	case TopoFatTreeK4:
		tp = topo.FatTree(topo.FatTreeConfig{K: 4})
	default:
		tp = topo.Testbed()
	}
	fab := dataplane.BuildFabric(tp, cfg.Switch, cfg.Seed)
	n := &Network{fab: fab, store: collector.NewStore(), hosts: host.Attach(fab, nic.Config{})}
	n.ns = core.Deploy(fab, cfg.NetSeer, n.store)
	return n
}

// Host returns a host endpoint by topology name (e.g. "h0-0-0", "hA").
func (n *Network) Host(name string) *host.Host {
	for _, h := range n.hosts {
		if h.Node.Name == name {
			return h
		}
	}
	panic(fmt.Sprintf("netseer: unknown host %q", name))
}

// Hosts returns all hosts in topology order.
func (n *Network) Hosts() []*host.Host { return append([]*host.Host(nil), n.hosts...) }

// Switch returns a switch by topology name (e.g. "core0", "edge0-1").
func (n *Network) Switch(name string) *dataplane.Switch {
	node, ok := n.fab.Topo.NodeByName(name)
	if !ok || node.Kind != topo.KindSwitch {
		panic(fmt.Sprintf("netseer: unknown switch %q", name))
	}
	return n.fab.Switches[node.ID]
}

// Link returns the link between two named nodes (switch or host names).
func (n *Network) Link(a, b string) *link.Link {
	l := n.fab.LinkBetween(a, b)
	if l == nil {
		panic(fmt.Sprintf("netseer: no link between %q and %q", a, b))
	}
	return l
}

// Sim exposes the simulation clock/scheduler.
func (n *Network) Sim() *sim.Simulator { return n.fab.Sim }

// GroundTruth exposes the omniscient event ledger (for verification).
func (n *Network) GroundTruth() *dataplane.GroundTruth { return n.fab.GT }

// Store exposes the in-process collector.
func (n *Network) Store() *collector.Store { return n.store }

// Run advances the simulation to the given absolute time, then flushes
// NetSeer state so all events are queryable. It can be called repeatedly
// with increasing horizons.
func (n *Network) Run(until Time) {
	n.fab.Sim.Run(until)
	for _, ns := range n.ns {
		ns.Flush()
	}
}

// Close stops all background machinery (CEBP circulation) and drains the
// simulation; the Network remains queryable.
func (n *Network) Close() { core.Drain(n.fab.Sim, n.ns) }

// Events queries the collector.
func (n *Network) Events(q Query) []Event { return n.store.Query(q) }

// SendBurst emits a burst of packets between two hosts (a convenience
// wrapper for examples and quick experiments). It returns the flow key
// used.
func (n *Network) SendBurst(from, to *host.Host, srcPort uint16, packets, size int) FlowKey {
	flow := FlowKey{
		SrcIP: from.Node.IP, DstIP: to.Node.IP,
		SrcPort: srcPort, DstPort: workload.DataPort, Proto: pkt.ProtoTCP,
	}
	from.SendUDP(flow, packets, size, 0)
	return flow
}

// NetSeerStats aggregates the per-switch telemetry statistics.
func (n *Network) NetSeerStats() core.Stats { return core.Sum(n.ns) }
