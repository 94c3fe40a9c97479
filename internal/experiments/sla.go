package experiments

import (
	"fmt"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/host"
	"netseer/internal/link"
	"netseer/internal/metrics"
	"netseer/internal/pkt"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// This file regenerates Fig. 8(b): attributing slow storage RPCs to the
// application, the network, or both, using three data sources of
// increasing power — host metrics alone, host + Pingmesh, and host +
// NetSeer. The paper's result: hosts explain 40.8%, host+Pingmesh 44%,
// host+NetSeer 97% of slow RPCs.

// SLAConfig parameterizes the study.
type SLAConfig struct {
	// Pairs is the number of client→storage-server RPC channels.
	Pairs int
	// Windows is the number of fault windows; each window draws one cause
	// profile.
	Windows int
	Seed    uint64
}

const (
	// slaWindowLen is the duration of one fault window.
	slaWindowLen = sim.Millisecond
	// slaSLO: an RPC slower than this is a violation.
	slaSLO = 300 * sim.Microsecond
)

func (c SLAConfig) withDefaults() SLAConfig {
	if c.Pairs <= 0 {
		c.Pairs = 6
	}
	if c.Windows <= 0 {
		c.Windows = 24
	}
	return c
}

// Cause bits of a window's injected condition.
type Cause uint8

// Window causes.
const (
	CauseNone Cause = 0
	// CauseAppLong is a long server stall — visible to host metrics.
	CauseAppLong Cause = 1 << iota
	// CauseAppShort is a sub-metric-interval stall — invisible to hosts.
	CauseAppShort
	// CauseNet is a network fault (loss burst or microburst congestion).
	CauseNet
)

// IsNet reports a network-side cause.
func (c Cause) IsNet() bool { return c&CauseNet != 0 }

// Verdict is a classification of one slow RPC by one data source.
type Verdict uint8

// Verdicts.
const (
	VerdictUnknown Verdict = iota
	VerdictApp
	VerdictNet
	VerdictBoth
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictApp:
		return "app"
	case VerdictNet:
		return "net"
	case VerdictBoth:
		return "both"
	default:
		return "unknown"
	}
}

// SLAResult holds the Fig. 8(b) fractions per data source.
type SLAResult struct {
	SlowRPCs int
	// Fraction[source][verdict] over slow RPCs. Sources: "host",
	// "host+pingmesh", "host+netseer".
	Fraction map[string]map[Verdict]float64
	// Explained[source] = 1 - unknown fraction.
	Explained map[string]float64
}

type slowRPC struct {
	at      sim.Time
	pair    int
	latency sim.Time
}

// Fig8bSLA runs the storage-RPC workload under windowed fault injection
// and scores the three data sources.
func Fig8bSLA(cfg SLAConfig) *SLAResult {
	cfg = cfg.withDefaults()
	total := sim.Time(cfg.Windows) * slaWindowLen
	tbCfg := RunConfig{
		Dist: workload.CACHE, Load: 0.25, Window: total,
		Seed: cfg.Seed, NetSeer: true, Pingmesh: true,
	}
	tb := NewTestbed(tbCfg)
	rng := sim.NewStream(cfg.Seed, "sla")

	// RPC channels: clients 0..Pairs-1 to servers at the other pod.
	type pairState struct {
		rpc    *host.RPC
		client *host.Host
		server *host.Host
		flows  []pkt.FlowKey
		stall  *sim.Time // pointer into the Processing closure
	}
	var pairs []*pairState
	for i := 0; i < cfg.Pairs; i++ {
		client := tb.Hosts[i]
		server := tb.Hosts[16+i]
		stall := new(sim.Time)
		r := host.NewRPC(client, server, host.RPCConfig{
			RespBytes: 32 << 10,
			Processing: func() sim.Time {
				return 10*sim.Microsecond + *stall
			},
			Conn: host.ConnConfig{RTO: 200 * sim.Microsecond},
		})
		ps := &pairState{rpc: r, client: client, server: server, stall: stall}
		// The four flow directions the RPC uses.
		req := pkt.FlowKey{SrcIP: client.Node.IP, DstIP: server.Node.IP, SrcPort: 40001, DstPort: 5000, Proto: pkt.ProtoTCP}
		resp := pkt.FlowKey{SrcIP: server.Node.IP, DstIP: client.Node.IP, SrcPort: 5001, DstPort: 40002, Proto: pkt.ProtoTCP}
		ps.flows = []pkt.FlowKey{req, req.Reverse(), resp, resp.Reverse()}
		pairs = append(pairs, ps)
	}

	// Windowed cause schedule.
	causes := make([]Cause, cfg.Windows)
	for w := range causes {
		r := rng.Float64()
		switch {
		case r < 0.40:
			causes[w] = CauseNone
		case r < 0.50:
			causes[w] = CauseAppLong
		case r < 0.68:
			causes[w] = CauseAppShort
		case r < 0.88:
			causes[w] = CauseNet
		default:
			causes[w] = CauseAppLong | CauseNet
		}
	}

	// Fault actuators per window.
	serverAccess := func(i int) (*link.Link, bool) {
		at := tb.Fab.HostPorts[tb.Hosts[16+i%cfg.Pairs].Node.ID][0]
		return at.Link, at.FromA
	}
	for w := 0; w < cfg.Windows; w++ {
		w := w
		start := sim.Time(w) * slaWindowLen
		tb.Sim.At(start, func() {
			c := causes[w]
			for _, ps := range pairs {
				switch {
				case c&CauseAppLong != 0:
					*ps.stall = slaSLO * 3
				case c&CauseAppShort != 0:
					*ps.stall = slaSLO // enough to violate, short of host metrics
				default:
					*ps.stall = 0
				}
			}
			if c.IsNet() {
				// Loss burst on a couple of server access links: RTO-driven
				// latency spikes.
				for i := 0; i < 2; i++ {
					l, fromA := serverAccess(w + i)
					l.SetFault(fromA, link.Fault{SilentLossProb: 0.15})
					_ = fromA
				}
			} else {
				for i := 0; i < cfg.Pairs; i++ {
					l, fromA := serverAccess(i)
					l.SetFault(fromA, link.Fault{})
				}
			}
		})
	}

	// Record slow RPCs with their window.
	var slow []slowRPC
	for i, ps := range pairs {
		i, ps := i, ps
		ps.rpc.OnDone(func(lat sim.Time) {
			if lat > slaSLO {
				slow = append(slow, slowRPC{at: tb.Sim.Now(), pair: i, latency: lat})
			}
		})
		ps.rpc.Loop(50 * sim.Microsecond)
	}

	tb.Gen.Start()
	tb.Sim.Run(total)
	tb.Gen.Stop()
	for _, ps := range pairs {
		ps.rpc.Stop()
	}
	// Remove lingering loss faults so retransmission loops can finish.
	for i := 0; i < cfg.Pairs; i++ {
		l, fromA := serverAccess(i)
		l.SetFault(fromA, link.Fault{})
	}
	tb.StopAndDrain()

	// Score the three data sources.
	res := &SLAResult{
		SlowRPCs:  len(slow),
		Fraction:  map[string]map[Verdict]float64{},
		Explained: map[string]float64{},
	}
	sources := []string{"host", "host+pingmesh", "host+netseer"}
	counts := map[string]map[Verdict]int{}
	for _, s := range sources {
		counts[s] = map[Verdict]int{}
	}
	windowOf := func(t sim.Time) int {
		w := int(t / slaWindowLen)
		if w >= cfg.Windows {
			w = cfg.Windows - 1
		}
		return w
	}
	for _, srpc := range slow {
		w := windowOf(srpc.at)
		c := causes[w]
		// Host metrics: see only long app stalls (15 s collection interval
		// in production ↔ our "long" class).
		hostSaysApp := c&CauseAppLong != 0
		// Pingmesh: a slow/lost probe near this time says "network".
		pmSaysNet := false
		wStart := sim.Time(w) * slaWindowLen
		wEnd := wStart + slaWindowLen
		for _, obs := range tb.Pingmesh.Slow {
			if obs.At >= wStart && obs.At < wEnd {
				pmSaysNet = true
				break
			}
		}
		if !pmSaysNet {
			for _, obs := range tb.Pingmesh.Lost {
				if obs.At >= wStart && obs.At < wEnd {
					pmSaysNet = true
					break
				}
			}
		}
		// NetSeer: any event for this RPC's flows inside the window — in
		// the collector, or in the edge NIC local logs (edge-link drops
		// are recovered by the upstream NIC per §4 "NIC").
		nsSaysNet := false
		for _, f := range pairs[srpc.pair].flows {
			f := f
			if len(tb.Store.Query(collector.Filter{Flow: &f, Since: wStart, Until: wEnd})) > 0 {
				nsSaysNet = true
				break
			}
		}
		if !nsSaysNet {
			ps := pairs[srpc.pair]
			for _, log := range [][]fevent.Event{ps.client.NIC.Log, ps.server.NIC.Log} {
				for _, e := range log {
					if e.Timestamp < wStart || e.Timestamp > wEnd {
						continue
					}
					for _, f := range ps.flows {
						if e.Flow == f {
							nsSaysNet = true
						}
					}
				}
			}
		}
		counts["host"][verdict(hostSaysApp, false, false)]++
		counts["host+pingmesh"][verdict(hostSaysApp, pmSaysNet, false)]++
		// NetSeer's always-on coverage supports *exoneration*: zero events
		// for the flow means the network is provably innocent, so the
		// cause is the application by elimination (§5.1 case #5, §3.1).
		counts["host+netseer"][verdict(hostSaysApp, nsSaysNet, true)]++
	}
	for _, s := range sources {
		res.Fraction[s] = map[Verdict]float64{}
		for v, n := range counts[s] {
			res.Fraction[s][v] = metrics.Ratio(float64(n), float64(len(slow)))
		}
		res.Explained[s] = 1 - res.Fraction[s][VerdictUnknown]
	}
	return res
}

func verdict(app, net, canExonerate bool) Verdict {
	switch {
	case app && net:
		return VerdictBoth
	case net:
		return VerdictNet
	case app:
		return VerdictApp
	case canExonerate:
		// Full network visibility with no events: the network is
		// innocent, so the application is responsible.
		return VerdictApp
	default:
		return VerdictUnknown
	}
}

// Fig8bTable renders the SLA attribution study.
func Fig8bTable(r *SLAResult) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Fig 8(b): slow-RPC attribution (%d slow RPCs)", r.SlowRPCs),
		"data source", "app", "net", "both", "unknown", "explained")
	for _, s := range []string{"host", "host+pingmesh", "host+netseer"} {
		t.AddRow(s,
			fmt.Sprintf("%.1f%%", r.Fraction[s][VerdictApp]*100),
			fmt.Sprintf("%.1f%%", r.Fraction[s][VerdictNet]*100),
			fmt.Sprintf("%.1f%%", r.Fraction[s][VerdictBoth]*100),
			fmt.Sprintf("%.1f%%", r.Fraction[s][VerdictUnknown]*100),
			fmt.Sprintf("%.1f%%", r.Explained[s]*100),
		)
	}
	return t
}
