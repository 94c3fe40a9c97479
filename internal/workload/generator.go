package workload

import (
	"netseer/internal/host"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// GenConfig parameterizes a traffic generator.
type GenConfig struct {
	// Dist samples flow sizes.
	Dist *Distribution
	// Load is the target fraction of each client's uplink (paper: 0.70).
	Load float64
	// FanIn is the number of distinct servers each client spreads its
	// flows over (paper: 4).
	FanIn int
	// FlowBps paces each flow's packets (default 20 Gb/s — around what a
	// congestion-controlled sender sustains on a 25 Gb/s NIC; two
	// colliding flows overload a server downlink, producing the transient
	// congestion the evaluation measures). Zero keeps the default;
	// negative disables pacing (packets dumped to the NIC at once).
	FlowBps float64
	// Seed drives arrivals, sizes and destination choice.
	Seed uint64
}

const (
	// clientBps is the client uplink speed (paper: 25 Gb/s).
	clientBps = 25e9
	// mss is the packet size for flow bodies (the paper's average packet
	// is ~1 kB).
	mss = 1000
	// basePort numbers flows; each flow gets a distinct source port.
	basePort = 10000
)

func (c GenConfig) withDefaults() GenConfig {
	if c.Load <= 0 {
		c.Load = 0.70
	}
	if c.FanIn <= 0 {
		c.FanIn = 4
	}
	if c.FlowBps == 0 {
		c.FlowBps = 20e9
	}
	return c
}

// Generator drives Poisson flow arrivals from a set of clients to a set
// of servers. Flow bodies are paced at FlowBps (default 20 Gb/s) — the
// steady rate a congestion-controlled sender would sustain — so queues
// see realistic fan-in collisions rather than permanent line-rate blasts;
// large flows still collide on server downlinks and produce the congestion
// and MMU-drop events the evaluation measures.
type Generator struct {
	cfg     GenConfig
	sim     *sim.Simulator
	clients []*host.Host
	servers []*host.Host
	rng     *sim.Stream
	stopped bool
	// arrivals[ci] is client ci's next flow arrival, bound once by Start.
	arrivals []func()

	// dstSets holds each client's FanIn chosen servers.
	dstSets [][]*host.Host

	flowSeq uint32
	// onFlow observes every started flow (trace recording).
	onFlow func(at sim.Time, flow pkt.FlowKey, bytes int)

	// Stats.
	FlowsStarted   uint64
	PacketsOffered uint64
	BytesOffered   uint64
}

// NewGenerator creates a generator; servers must have a service handler
// on DataPort already (or accept counting via host.Received).
func NewGenerator(s *sim.Simulator, clients, servers []*host.Host, cfg GenConfig) *Generator {
	if len(clients) == 0 || len(servers) == 0 {
		panic("workload: need clients and servers")
	}
	cfg = cfg.withDefaults()
	g := &Generator{
		cfg: cfg, sim: s, clients: clients, servers: servers,
		rng: sim.NewStream(cfg.Seed, "workload-"+cfg.Dist.Name),
	}
	for range clients {
		set := make([]*host.Host, 0, cfg.FanIn)
		for len(set) < cfg.FanIn {
			cand := servers[g.rng.Intn(len(servers))]
			set = append(set, cand)
		}
		g.dstSets = append(g.dstSets, set)
	}
	return g
}

// DataPort is the destination port generated flows target.
const DataPort uint16 = 8000

// Start schedules Poisson arrivals on every client until Stop or the end
// of the simulation.
func (g *Generator) Start() {
	interArrival := g.meanInterArrival()
	g.arrivals = make([]func(), len(g.clients))
	for ci := range g.clients {
		g.arrivals[ci] = func() { g.arrive(ci, interArrival) }
		// Desynchronize clients.
		first := sim.Time(g.rng.Exp(float64(interArrival)))
		g.sim.Schedule(first, g.arrivals[ci])
	}
}

// meanInterArrival returns the per-client mean time between flow
// arrivals that achieves the target load.
func (g *Generator) meanInterArrival() sim.Time {
	bytesPerSec := g.cfg.Load * clientBps / 8
	flowsPerSec := bytesPerSec / g.cfg.Dist.Mean()
	return sim.Time(1e9 / flowsPerSec)
}

// Stop halts new arrivals.
func (g *Generator) Stop() { g.stopped = true }

func (g *Generator) arrive(ci int, mean sim.Time) {
	if g.stopped {
		return
	}
	g.startFlow(ci)
	next := sim.Time(g.rng.Exp(float64(mean)))
	if next < 1 {
		next = 1
	}
	g.sim.Schedule(next, g.arrivals[ci])
}

// startFlow launches one flow from client ci to one of its servers.
func (g *Generator) startFlow(ci int) {
	client := g.clients[ci]
	server := g.dstSets[ci][g.rng.Intn(len(g.dstSets[ci]))]
	if server.Node.IP == client.Node.IP {
		return
	}
	size := g.cfg.Dist.Sample(g.rng)
	g.flowSeq++
	flow := pkt.FlowKey{
		SrcIP:   client.Node.IP,
		DstIP:   server.Node.IP,
		SrcPort: basePort + uint16(g.flowSeq%40000),
		DstPort: DataPort,
		Proto:   pkt.ProtoTCP,
	}
	packets := (size + mss - 1) / mss
	if packets < 1 {
		packets = 1
	}
	g.FlowsStarted++
	g.PacketsOffered += uint64(packets)
	g.BytesOffered += uint64(size)
	if g.onFlow != nil {
		g.onFlow(g.sim.Now(), flow, size)
	}
	if g.cfg.FlowBps < 0 {
		client.SendUDP(flow, packets, mss, 0)
		return
	}
	g.pace(client, flow, packets)
}

// pace sends a flow's packets at the per-flow rate, in chunks of a few
// packets that keep simulator event counts reasonable for elephants: chunk
// k leaves at k·gap. The flow holds one armed chunk at a time.
func (g *Generator) pace(client *host.Host, flow pkt.FlowKey, packets int) {
	f := &pacedFlow{g: g, client: client, flow: flow, left: packets,
		gap: sim.Time(float64(mss*8*chunk) / g.cfg.FlowBps * 1e9)}
	f.next = f.send
	f.send()
}

// chunk is the number of packets a paced flow sends at once.
const chunk = 4

// pacedFlow is a flow whose packets are still to be sent: next, bound once,
// sends a chunk and re-arms itself gap later while packets are left.
type pacedFlow struct {
	g      *Generator
	client *host.Host
	flow   pkt.FlowKey
	left   int
	gap    sim.Time
	next   func()
}

func (f *pacedFlow) send() {
	if f.g.stopped {
		return
	}
	n := min(chunk, f.left)
	f.client.SendUDP(f.flow, n, mss, 0)
	if f.left -= n; f.left > 0 {
		f.g.sim.Schedule(f.gap, f.next)
	}
}

// Incast launches a synchronized fan-in burst: every sender transmits
// bytesEach to the single receiver at once (the paper's case #4 and the
// congestion-drop producer).
func Incast(s *sim.Simulator, senders []*host.Host, receiver *host.Host, bytesEach, mss int, prio uint8) {
	if mss <= 0 {
		mss = 1000
	}
	for i, snd := range senders {
		if snd.Node.IP == receiver.Node.IP {
			continue
		}
		flow := pkt.FlowKey{
			SrcIP: snd.Node.IP, DstIP: receiver.Node.IP,
			SrcPort: uint16(20000 + i), DstPort: DataPort, Proto: pkt.ProtoTCP,
		}
		packets := (bytesEach + mss - 1) / mss
		snd.SendUDP(flow, packets, mss, prio)
	}
}
