package host

import (
	"netseer/internal/sim"
)

// RPC is a request/response exchange between two hosts over a pair of
// TCP-lite connections, with measurable end-to-end latency — the shape of
// the block-storage workload in the paper's SLA case study (§5.1).
type RPC struct {
	Client *Host
	Server *Host

	cfg RPCConfig

	cliConn *Conn // client → server (requests)
	srvConn *Conn // server → client (responses)

	respSegs int

	// server-side progress in segments toward the current request.
	gotReq int
	// client-side progress toward the current response.
	gotResp int

	started  sim.Time
	inflight bool
	stopped  bool

	// Latencies records one entry per completed call.
	Latencies []sim.Time
	onDone    func(lat sim.Time)
}

// An RPC channel's request size and its ports: requests run from
// rpcClientPort to rpcServerPort, responses between the next two ports.
const (
	rpcReqBytes   = 4 << 10
	rpcReqSegs    = (rpcReqBytes + mss - 1) / mss
	rpcClientPort = 40001
	rpcServerPort = 5000
)

// RPCConfig parameterizes an RPC channel.
type RPCConfig struct {
	// RespBytes sizes each call's response (default 64 kB).
	RespBytes int
	// Processing returns the server-side service time per call
	// (default: constant 10 µs). Inject app-side stalls here.
	Processing func() sim.Time
	// Conn carries transport parameters.
	Conn ConnConfig
}

func (c RPCConfig) withDefaults() RPCConfig {
	if c.RespBytes <= 0 {
		c.RespBytes = 64 << 10
	}
	if c.Processing == nil {
		c.Processing = func() sim.Time { return 10 * sim.Microsecond }
	}
	return c
}

// NewRPC wires an RPC channel between client and server.
func NewRPC(client, server *Host, cfg RPCConfig) *RPC {
	cfg = cfg.withDefaults()
	conn := cfg.Conn.withDefaults()
	r := &RPC{Client: client, Server: server, cfg: cfg}
	r.respSegs = (cfg.RespBytes + mss - 1) / mss
	r.cliConn = client.Dial(server.Node.IP, rpcClientPort, rpcServerPort, conn)
	// Server side of the request stream.
	server.Accept(client.Node.IP, rpcServerPort, rpcClientPort, conn, func(seq, size int) {
		r.gotReq++
		if r.gotReq >= rpcReqSegs {
			r.gotReq -= rpcReqSegs
			delay := r.cfg.Processing()
			server.sim.Schedule(delay, func() {
				r.srvConn.Send(r.cfg.RespBytes)
			})
		}
	})
	// Response stream: server → client.
	r.srvConn = server.Dial(client.Node.IP, rpcServerPort+1, rpcClientPort+1, conn)
	client.Accept(server.Node.IP, rpcClientPort+1, rpcServerPort+1, conn, func(seq, size int) {
		r.gotResp++
		if r.gotResp >= r.respSegs {
			r.gotResp -= r.respSegs
			r.complete()
		}
	})
	return r
}

// Call issues one RPC; at most one may be in flight per channel.
func (r *RPC) Call() {
	if r.inflight || r.stopped {
		return
	}
	r.inflight = true
	r.started = r.Client.sim.Now()
	r.cliConn.Send(rpcReqBytes)
}

func (r *RPC) complete() {
	if !r.inflight {
		return
	}
	r.inflight = false
	lat := r.Client.sim.Now() - r.started
	r.Latencies = append(r.Latencies, lat)
	if r.onDone != nil {
		r.onDone(lat)
	}
}

// Loop issues calls closed-loop with the given think time between a
// completion and the next call, until Stop is called or the simulation
// ends.
func (r *RPC) Loop(think sim.Time) {
	prev := r.onDone
	r.onDone = func(lat sim.Time) {
		if prev != nil {
			prev(lat)
		}
		if !r.stopped {
			r.Client.sim.Schedule(think, r.Call)
		}
	}
	r.Call()
}

// Stop ends a Loop after the in-flight call completes.
func (r *RPC) Stop() { r.stopped = true }

// OnDone registers a completion callback (composes with Loop if set
// before Loop).
func (r *RPC) OnDone(fn func(lat sim.Time)) { r.onDone = fn }

// Retransmits reports total transport retransmissions on both directions.
func (r *RPC) Retransmits() uint64 {
	return r.cliConn.Retransmits + r.srvConn.Retransmits
}
