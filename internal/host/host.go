// Package host provides traffic endpoints over the simulated fabric: a
// generic host with per-port service dispatch, an open-loop UDP sender,
// a small reliable windowed transport ("TCP-lite") with timeout
// retransmission, and an RPC layer used by the SLA-violation case study
// (Fig. 8(b)).
package host

import (
	"fmt"

	"netseer/internal/dataplane"
	"netseer/internal/nic"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// Host is one server: a NIC plus protocol endpoints.
type Host struct {
	Node topo.Node
	NIC  *nic.NIC
	sim  *sim.Simulator

	pool *pkt.Pool // the fabric's: numbers what the host sends, takes back what it receives

	// services dispatch received data packets by destination port.
	services map[uint16]func(p *pkt.Packet)
	// conns dispatch TCP-lite segments by (peer, ports).
	conns map[connKey]*Conn

	received uint64

	// onProbeEcho is invoked with the measured RTT when a probe echo
	// returns.
	onProbeEcho func(peer uint32, rtt sim.Time)
}

type connKey struct {
	peerIP     uint32
	localPort  uint16
	remotePort uint16
}

// Attach builds a host on every host node of the fabric and returns them
// in topology order. Their packets come from the fabric's pool, which
// numbers them across the whole simulation.
func Attach(fab *dataplane.Fabric, ncfg nic.Config) []*Host {
	var hosts []*Host
	for _, node := range fab.Topo.Hosts() {
		h := &Host{
			Node: node, sim: fab.Sim, pool: fab.Pool,
			services: make(map[uint16]func(*pkt.Packet)),
			conns:    make(map[connKey]*Conn),
		}
		at := fab.HostPorts[node.ID][0]
		h.NIC = nic.New(fab.Sim, at.Link, at.FromA, ncfg, fab.Pool, h.deliver)
		fab.AttachHost(node.ID, h.NIC)
		hosts = append(hosts, h)
	}
	return hosts
}

// Handle registers a service on a destination port. fn has the packet for
// the call only: it goes back to the fabric's pool when fn returns.
func (h *Host) Handle(port uint16, fn func(p *pkt.Packet)) {
	h.services[port] = fn
}

// Received returns the count of data packets delivered to this host.
func (h *Host) Received() uint64 { return h.received }

// deliver is the host sink: the packet has left the fabric, and goes back
// to the pool once its protocol endpoint has seen it. Endpoints must not
// keep it.
func (h *Host) deliver(p *pkt.Packet) {
	h.received++
	if p.Kind == pkt.KindProbe {
		h.deliverProbe(p)
	} else if c, ok := h.conns[connKey{p.Flow.SrcIP, p.Flow.DstPort, p.Flow.SrcPort}]; ok {
		c.receive(p)
	} else if fn, ok := h.services[p.Flow.DstPort]; ok {
		fn(p)
	}
	h.pool.Put(p)
}

// deliverProbe echoes probe requests and completes returning echoes.
func (h *Host) deliverProbe(p *pkt.Packet) {
	if p.Flow.DstPort == ProbeEchoPort {
		echo := h.pool.Get()
		echo.Kind, echo.Flow = pkt.KindProbe, p.Flow.Reverse()
		echo.WireLen, echo.TTL, echo.Priority = 64, 64, p.Priority
		echo.SentAt = p.SentAt // carry the original timestamp back
		h.NIC.Send(echo)
		return
	}
	if p.Flow.DstPort == probeSrcPort && h.onProbeEcho != nil {
		h.onProbeEcho(p.Flow.SrcIP, h.sim.Now()-p.SentAt)
	}
}

// OnProbeEcho registers the probe-RTT callback.
func (h *Host) OnProbeEcho(fn func(peer uint32, rtt sim.Time)) { h.onProbeEcho = fn }

// send transmits a raw packet via the NIC.
func (h *Host) send(flow pkt.FlowKey, wireLen int, prio uint8, payload []byte) {
	p := h.pool.Get()
	p.Kind, p.Flow = pkt.KindData, flow
	p.WireLen, p.TTL, p.Priority = wireLen, 64, prio
	p.SentAt, p.Payload = h.sim.Now(), payload
	h.NIC.Send(p)
}

// SendUDP emits a burst of UDP packets for flow at the NIC's line rate.
// The NIC builds each packet as it departs.
func (h *Host) SendUDP(flow pkt.FlowKey, packets int, wireLen int, prio uint8) {
	h.NIC.SendBurst(flow, packets, wireLen, prio)
}

// ProbeEchoPort is the well-known probe responder port.
const ProbeEchoPort = 7

const probeSrcPort = 62000

// SendProbe emits one Pingmesh-style probe toward dst; the echo invokes
// the OnProbeEcho callback with the measured RTT.
func (h *Host) SendProbe(dst uint32) {
	p := h.pool.Get()
	p.Kind = pkt.KindProbe
	p.Flow = pkt.FlowKey{SrcIP: h.Node.IP, DstIP: dst, SrcPort: probeSrcPort, DstPort: ProbeEchoPort, Proto: pkt.ProtoUDP}
	p.WireLen, p.TTL, p.SentAt = 64, 64, h.sim.Now()
	h.NIC.Send(p)
}

// String names the host.
func (h *Host) String() string { return fmt.Sprintf("host(%s)", h.Node.Name) }
