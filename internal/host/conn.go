package host

import (
	"encoding/binary"

	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Conn is "TCP-lite": a unidirectional reliable byte-segment stream with
// cumulative ACKs, timeout retransmission, and either a fixed window or
// AIMD congestion control (ConnConfig.AIMD). It is just enough transport
// to reproduce the RPC behaviours the paper's case studies depend on:
// packet drops cause retransmissions and latency spikes; congestion
// causes queuing delay and backoff.
type Conn struct {
	host *Host
	flow pkt.FlowKey // local → remote
	cfg  ConnConfig

	// Sender state.
	segments  []segment // all segments ever queued, indexed by seq
	sndNext   int       // next unsent segment
	sndUna    int       // oldest unacked segment
	rtoHandle sim.Handle
	rtoArmed  bool

	// AIMD state (used when cfg.AIMD).
	cwnd     int // congestion window in segments
	ackCount int // ACK progress toward the next additive increase

	// Receiver state.
	rcvNext  int
	received map[int]bool
	onSeg    func(seq int, size int)

	// Stats.
	Retransmits uint64
	Delivered   uint64
}

// mss is a Conn's segment wire size in bytes.
const mss = 1400

// ConnConfig parameterizes a Conn.
type ConnConfig struct {
	// Window is the send window in segments (default 32). With AIMD set,
	// this is the maximum window.
	Window int
	// RTO is the retransmission timeout (default 1 ms).
	RTO sim.Time
	// Priority selects the egress queue.
	Priority uint8
	// AIMD enables additive-increase/multiplicative-decrease congestion
	// control: the effective window starts at 2 segments, grows by one
	// per window of ACKs, and halves on every timeout — the first-order
	// behaviour of the production transports whose traffic the paper
	// monitors.
	AIMD bool
}

func (c ConnConfig) withDefaults() ConnConfig {
	if c.Window <= 0 {
		c.Window = 32
	}
	if c.RTO <= 0 {
		c.RTO = sim.Millisecond
	}
	return c
}

type segment struct {
	size  int
	acked bool
}

// Dial creates a connection from h to the remote address. Segments
// delivered in order at the receiver invoke onSeg there; the remote host
// must also Accept the connection.
func (h *Host) Dial(remoteIP uint32, localPort, remotePort uint16, cfg ConnConfig) *Conn {
	flow := pkt.FlowKey{SrcIP: h.Node.IP, DstIP: remoteIP, SrcPort: localPort, DstPort: remotePort, Proto: pkt.ProtoTCP}
	c := &Conn{host: h, flow: flow, cfg: cfg.withDefaults(), received: make(map[int]bool)}
	c.cwnd = 2
	h.conns[connKey{remoteIP, localPort, remotePort}] = c
	return c
}

// Accept registers the receiving side of a connection, invoking onSeg
// for every in-order segment.
func (h *Host) Accept(remoteIP uint32, localPort, remotePort uint16, cfg ConnConfig, onSeg func(seq, size int)) *Conn {
	flow := pkt.FlowKey{SrcIP: h.Node.IP, DstIP: remoteIP, SrcPort: localPort, DstPort: remotePort, Proto: pkt.ProtoTCP}
	c := &Conn{host: h, flow: flow, cfg: cfg.withDefaults(), received: make(map[int]bool), onSeg: onSeg}
	c.cwnd = 2
	h.conns[connKey{remoteIP, localPort, remotePort}] = c
	return c
}

// Send queues n bytes (rounded up to whole segments) for transmission.
func (c *Conn) Send(n int) {
	for n > 0 {
		sz := mss
		if n < sz {
			sz = n
		}
		c.segments = append(c.segments, segment{size: sz})
		n -= sz
	}
	c.pump()
}

// InFlight returns the count of sent-but-unacked segments.
func (c *Conn) InFlight() int { return c.sndNext - c.sndUna }

// Idle reports whether everything queued has been acknowledged.
func (c *Conn) Idle() bool { return c.sndUna == len(c.segments) }

// window returns the current effective send window in segments.
func (c *Conn) window() int {
	if !c.cfg.AIMD {
		return c.cfg.Window
	}
	w := c.cwnd
	if w > c.cfg.Window {
		w = c.cfg.Window
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Cwnd returns the current congestion window (equals the configured
// window when AIMD is off).
func (c *Conn) Cwnd() int { return c.window() }

// pump transmits while the window allows.
func (c *Conn) pump() {
	for c.sndNext < len(c.segments) && c.InFlight() < c.window() {
		c.transmit(c.sndNext)
		c.sndNext++
	}
	c.armRTO()
}

func (c *Conn) transmit(seq int) {
	var payload [9]byte
	payload[0] = msgData
	binary.BigEndian.PutUint64(payload[1:], uint64(seq))
	c.host.send(c.flow, c.segments[seq].size, c.cfg.Priority, payload[:])
}

func (c *Conn) armRTO() {
	if c.rtoArmed || c.sndUna >= c.sndNext {
		return
	}
	c.rtoArmed = true
	c.rtoHandle = c.host.sim.Schedule(c.cfg.RTO, c.onRTO)
}

func (c *Conn) onRTO() {
	c.rtoArmed = false
	if c.sndUna >= len(c.segments) {
		return
	}
	// Multiplicative decrease: a timeout signals loss.
	if c.cfg.AIMD {
		c.cwnd /= 2
		if c.cwnd < 1 {
			c.cwnd = 1
		}
		c.ackCount = 0
	}
	// Go-back-N: retransmit the window from the oldest unacked segment.
	end := c.sndNext
	for seq := c.sndUna; seq < end; seq++ {
		c.Retransmits++
		c.transmit(seq)
	}
	c.armRTO()
}

// Message type bytes inside the 9-byte control payload.
const (
	msgData byte = iota + 1
	msgAck
)

// receive handles a segment or ACK arriving at either side.
func (c *Conn) receive(p *pkt.Packet) {
	if len(p.Payload) < 9 {
		return
	}
	kind := p.Payload[0]
	seq := int(binary.BigEndian.Uint64(p.Payload[1:9]))
	switch kind {
	case msgData:
		c.onData(seq, p.WireLen)
	case msgAck:
		c.onAck(seq)
	}
}

func (c *Conn) onData(seq, size int) {
	if seq >= c.rcvNext && !c.received[seq] {
		c.received[seq] = true
		for c.received[c.rcvNext] {
			delete(c.received, c.rcvNext)
			c.Delivered++
			if c.onSeg != nil {
				c.onSeg(c.rcvNext, size)
			}
			c.rcvNext++
		}
	}
	// Cumulative ACK (rcvNext = next expected).
	var payload [9]byte
	payload[0] = msgAck
	binary.BigEndian.PutUint64(payload[1:], uint64(c.rcvNext))
	c.host.send(c.flow, 64, c.cfg.Priority, payload[:])
}

func (c *Conn) onAck(cum int) {
	if cum <= c.sndUna {
		return
	}
	acked := cum - c.sndUna
	for seq := c.sndUna; seq < cum && seq < len(c.segments); seq++ {
		c.segments[seq].acked = true
	}
	c.sndUna = cum
	// Additive increase: one segment per window's worth of ACKs.
	if c.cfg.AIMD {
		c.ackCount += acked
		if c.ackCount >= c.cwnd {
			c.ackCount -= c.cwnd
			if c.cwnd < c.cfg.Window {
				c.cwnd++
			}
		}
	}
	if c.rtoArmed {
		c.host.sim.Cancel(c.rtoHandle)
		c.rtoArmed = false
	}
	c.pump()
}
