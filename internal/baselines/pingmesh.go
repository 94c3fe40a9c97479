package baselines

import (
	"netseer/internal/dataplane"
	"netseer/internal/host"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/topo"
)

// Pingmesh sends full-mesh probes between all hosts once per interval
// (the paper configures one round per second). A slow or lost probe says
// "something, somewhere on this source-destination path" — no flow
// attribution, and only for the instants probes are in flight, which is
// why it explains so little (§5.2: detects the existence of 0.02% of
// congestion events).
type Pingmesh struct {
	sim      *sim.Simulator
	hosts    []*host.Host
	routes   *topo.Routes
	interval sim.Time
	rttThr   sim.Time

	// Observations: per probe outcome.
	Slow []ProbeObs
	Lost []ProbeObs
	sent uint64
	echo uint64

	inflight map[probeKey]probeState
	stopped  bool
}

// ProbeObs is one anomalous probe observation.
type ProbeObs struct {
	At       sim.Time
	Src, Dst uint32
	RTT      sim.Time // 0 for lost probes
}

type probeKey struct {
	src, dst uint32
	round    uint64
}

type probeState struct {
	sentAt sim.Time
}

// NewPingmesh builds the prober over the given hosts. rttThr classifies a
// probe as slow.
func NewPingmesh(s *sim.Simulator, hosts []*host.Host, routes *topo.Routes, interval, rttThr sim.Time) *Pingmesh {
	p := &Pingmesh{
		sim: s, hosts: hosts, routes: routes,
		interval: interval, rttThr: rttThr,
		inflight: make(map[probeKey]probeState),
	}
	for _, h := range hosts {
		h := h
		h.OnProbeEcho(func(peer uint32, rtt sim.Time) { p.onEcho(h.Node.IP, peer, rtt) })
	}
	p.scheduleRound(0)
	return p
}

// Stop halts probing.
func (p *Pingmesh) Stop() { p.stopped = true }

func (p *Pingmesh) scheduleRound(round uint64) {
	p.sim.Schedule(p.interval, func() {
		if p.stopped {
			return
		}
		p.probeAll(round)
		// Probes unanswered by the next round are lost.
		p.sim.Schedule(p.interval/2, func() { p.reap(round) })
		p.scheduleRound(round + 1)
	})
}

func (p *Pingmesh) probeAll(round uint64) {
	// Spread the full mesh across the first half of the round (production
	// Pingmesh paces its probes; a synchronized burst would itself be a
	// microburst).
	n := len(p.hosts) * (len(p.hosts) - 1)
	if n == 0 {
		return
	}
	spread := p.interval / 2
	idx := 0
	for _, src := range p.hosts {
		for _, dst := range p.hosts {
			if src == dst {
				continue
			}
			src, dst := src, dst
			offset := spread * sim.Time(idx) / sim.Time(n)
			idx++
			p.sim.Schedule(offset, func() {
				if p.stopped {
					return
				}
				p.sent++
				p.inflight[probeKey{src.Node.IP, dst.Node.IP, round}] = probeState{sentAt: p.sim.Now()}
				src.SendProbe(dst.Node.IP)
			})
		}
	}
}

func (p *Pingmesh) onEcho(src, dst uint32, rtt sim.Time) {
	p.echo++
	// Clear whichever round this answers (oldest first).
	for k := range p.inflight {
		if k.src == src && k.dst == dst {
			delete(p.inflight, k)
			break
		}
	}
	if rtt >= p.rttThr {
		p.Slow = append(p.Slow, ProbeObs{At: p.sim.Now(), Src: src, Dst: dst, RTT: rtt})
	}
}

func (p *Pingmesh) reap(round uint64) {
	for k, st := range p.inflight {
		if k.round == round {
			p.Lost = append(p.Lost, ProbeObs{At: st.sentAt, Src: k.src, Dst: k.dst})
			delete(p.inflight, k)
		}
	}
}

// Sent and Echoed report probe volume.
func (p *Pingmesh) SentEchoed() (sent, echoed uint64) { return p.sent, p.echo }

// CoversCongestion reports whether any anomalous probe's path crossed the
// given switch's congested egress port within the window around t — the
// "existence detection" credit used when scoring Pingmesh against ground
// truth. Requiring the exact egress port reflects that a slow probe only
// implicates the queue it actually waited in.
func (p *Pingmesh) CoversCongestion(fab *dataplane.Fabric, swID uint16, port uint8, t, window sim.Time) bool {
	check := func(obs ProbeObs) bool {
		if obs.At < t-window || obs.At > t+window {
			return false
		}
		srcNode, ok := fab.Topo.NodeByIP(obs.Src)
		if !ok {
			return false
		}
		flow := pkt.FlowKey{SrcIP: obs.Src, DstIP: obs.Dst, SrcPort: 62000, DstPort: host.ProbeEchoPort, Proto: pkt.ProtoUDP}
		path, err := p.routes.PathOf(srcNode.ID, flow)
		if err != nil {
			return false
		}
		for i, nid := range path {
			sw, ok := fab.Switches[nid]
			if !ok || sw.ID != swID || i+1 >= len(path) {
				continue
			}
			// The probe's egress port at this switch is the one facing
			// the next node on its path.
			for _, pt := range fab.Topo.Ports(nid) {
				if pt.Peer == path[i+1] && uint8(pt.Num) == port {
					return true
				}
			}
		}
		return false
	}
	for _, obs := range p.Slow {
		if check(obs) {
			return true
		}
	}
	for _, obs := range p.Lost {
		if check(obs) {
			return true
		}
	}
	return false
}
