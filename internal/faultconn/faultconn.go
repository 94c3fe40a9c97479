// Package faultconn wraps net.Conn/net.Listener with deterministic
// fault injection — connection resets, partial writes, added latency,
// byte corruption, and asymmetric partitions — for chaos-testing the
// switch-CPU→collector channel. All fault decisions are drawn from a
// seeded PRNG (one sub-stream per accepted connection), so a failing run
// reproduces from its seed.
package faultconn

import (
	"errors"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// ErrInjectedReset is returned by Read/Write when the configured byte
// budget runs out and the connection is forcibly closed.
var ErrInjectedReset = errors.New("faultconn: injected connection reset")

// Direction selects which way bytes flow through a wrapped connection,
// as seen from the wrapped (usually server-side) endpoint.
type Direction int

const (
	// Inbound is the peer→wrapped direction: partitioning it starves
	// Read without disturbing the peer's view of its own writes.
	Inbound Direction = 1 << iota
	// Outbound is the wrapped→peer direction: partitioning it stalls
	// Write (acks, responses) while requests keep arriving.
	Outbound
)

// Config selects which faults to inject. Zero values disable each fault.
type Config struct {
	// Seed drives every fault decision deterministically.
	Seed int64
	// ResetAfter forcibly closes the connection after roughly this many
	// bytes have crossed it in one direction (each direction draws its
	// own budget uniformly from [ResetAfter/2, ResetAfter], so a reset
	// can land mid-read or mid-write independently).
	ResetAfter int
	// MaxChunk splits writes into chunks of at most this many bytes,
	// exercising short-write handling.
	MaxChunk int
	// CorruptProb flips one byte per Read/Write call with this
	// probability, exercising checksum validation.
	CorruptProb float64
	// Latency sleeps this long before every write.
	Latency time.Duration

	// PartitionDir, when non-zero, schedules an asymmetric partition:
	// the selected direction(s) stall — a Read or Write in a partitioned
	// direction blocks until the partition heals or the connection's
	// deadline passes — while the opposite direction flows normally,
	// like a one-way link failure. The partition starts PartitionAfter
	// after the connection is wrapped and heals after PartitionFor
	// (0 = never heals on its own). Listener.Partition/Heal override the
	// schedule at runtime.
	PartitionDir   Direction
	PartitionAfter time.Duration
	PartitionFor   time.Duration
}

// partitionState is the runtime partition switch shared by a Listener
// and every connection it accepted, so a test can cut and heal one
// direction across all live connections at once.
type partitionState struct {
	mu  sync.Mutex
	dir Direction // currently partitioned directions (manual override)
	set bool      // manual override active (ignore the config schedule)
}

func (p *partitionState) partition(dir Direction) {
	p.mu.Lock()
	p.dir, p.set = dir, true
	p.mu.Unlock()
}

func (p *partitionState) heal() {
	p.mu.Lock()
	p.dir, p.set = 0, true
	p.mu.Unlock()
}

// blocked reports whether dir is partitioned right now for a connection
// created at start, combining the manual override with the configured
// schedule.
func (p *partitionState) blocked(cfg Config, start time.Time, dir Direction) bool {
	if p != nil {
		p.mu.Lock()
		set, cur := p.set, p.dir
		p.mu.Unlock()
		if set {
			return cur&dir != 0
		}
	}
	if cfg.PartitionDir&dir == 0 {
		return false
	}
	since := time.Since(start)
	if since < cfg.PartitionAfter {
		return false
	}
	if cfg.PartitionFor > 0 && since >= cfg.PartitionAfter+cfg.PartitionFor {
		return false
	}
	return true
}

// Listener wraps a net.Listener so every accepted connection injects the
// configured faults.
type Listener struct {
	net.Listener
	cfg Config

	mu     sync.Mutex
	nconns int64
	part   partitionState
}

// Wrap returns a fault-injecting view of ln.
func Wrap(ln net.Listener, cfg Config) *Listener {
	return &Listener{Listener: ln, cfg: cfg}
}

// Partition cuts the given direction(s) on every connection this
// listener has accepted or will accept, overriding any configured
// schedule, until Heal is called.
func (l *Listener) Partition(dir Direction) { l.part.partition(dir) }

// Heal restores both directions on every connection of this listener.
func (l *Listener) Heal() { l.part.heal() }

// Listen opens a TCP listener on addr with fault injection.
func Listen(addr string, cfg Config) (*Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Wrap(ln, cfg), nil
}

// Accept wraps the next connection with its own deterministic fault
// stream.
func (l *Listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.nconns++
	n := l.nconns
	l.mu.Unlock()
	// Derive a distinct, reproducible sub-seed per connection.
	fc := WrapConn(c, l.cfg, l.cfg.Seed^(n*0x9e3779b97f4a7c))
	fc.part = &l.part
	return fc, nil
}

// Conn injects faults on one connection.
type Conn struct {
	net.Conn
	cfg   Config
	start time.Time
	part  *partitionState // shared with the Listener; nil for WrapConn

	mu        sync.Mutex
	rng       *rand.Rand
	budgetR   int // inbound bytes until injected reset; -1 = unlimited
	budgetW   int // outbound bytes until injected reset; -1 = unlimited
	deadlineR time.Time
	deadlineW time.Time
	closed    bool
}

// Close unblocks any partition wait before closing the wrapped conn.
func (c *Conn) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	return c.Conn.Close()
}

// WrapConn wraps one connection with the given fault config and seed.
func WrapConn(c net.Conn, cfg Config, seed int64) *Conn {
	rng := rand.New(rand.NewSource(seed))
	drawBudget := func() int {
		if cfg.ResetAfter <= 0 {
			return -1
		}
		return cfg.ResetAfter/2 + rng.Intn(cfg.ResetAfter/2+1)
	}
	return &Conn{Conn: c, cfg: cfg, start: time.Now(), rng: rng,
		budgetR: drawBudget(), budgetW: drawBudget()}
}

// SetDeadline mirrors the deadline so partition waits can respect it.
func (c *Conn) SetDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlineR, c.deadlineW = t, t
	c.mu.Unlock()
	return c.Conn.SetDeadline(t)
}

// SetReadDeadline mirrors the read deadline for partition waits.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlineR = t
	c.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// SetWriteDeadline mirrors the write deadline for partition waits.
func (c *Conn) SetWriteDeadline(t time.Time) error {
	c.mu.Lock()
	c.deadlineW = t
	c.mu.Unlock()
	return c.Conn.SetWriteDeadline(t)
}

// awaitPartition blocks while dir is partitioned, returning nil once the
// partition heals or the connection is closed (the delegated Read/Write
// then reports the close). When the direction's deadline ends the wait
// it returns os.ErrDeadlineExceeded and the caller must not touch the
// socket: its own deadline timer may not have fired yet, and a delegated
// call could still move bytes across the partitioned link. Polling keeps
// the implementation independent of how the partition is controlled.
func (c *Conn) awaitPartition(dir Direction) error {
	for c.part.blocked(c.cfg, c.start, dir) {
		c.mu.Lock()
		deadline, closed := c.deadlineR, c.closed
		if dir == Outbound {
			deadline = c.deadlineW
		}
		c.mu.Unlock()
		if closed {
			return nil
		}
		if !deadline.IsZero() && time.Now().After(deadline) {
			return os.ErrDeadlineExceeded
		}
		time.Sleep(2 * time.Millisecond)
	}
	return nil
}

// Write injects latency, chunking, corruption and resets, then forwards
// to the wrapped connection.
func (c *Conn) Write(p []byte) (int, error) {
	if err := c.awaitPartition(Outbound); err != nil {
		return 0, err
	}
	if c.cfg.Latency > 0 {
		time.Sleep(c.cfg.Latency)
	}
	written := 0
	for written < len(p) {
		chunk := p[written:]
		c.mu.Lock()
		if c.budgetW == 0 {
			c.mu.Unlock()
			c.Conn.Close()
			return written, ErrInjectedReset
		}
		if c.cfg.MaxChunk > 0 && len(chunk) > c.cfg.MaxChunk {
			chunk = chunk[:c.cfg.MaxChunk]
		}
		if c.budgetW > 0 && len(chunk) > c.budgetW {
			chunk = chunk[:c.budgetW]
		}
		if c.cfg.CorruptProb > 0 && c.rng.Float64() < c.cfg.CorruptProb {
			flipped := append([]byte(nil), chunk...)
			flipped[c.rng.Intn(len(flipped))] ^= 0xff
			chunk = flipped
		}
		if c.budgetW > 0 {
			c.budgetW -= len(chunk)
		}
		c.mu.Unlock()
		n, err := c.Conn.Write(chunk)
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Read injects corruption and resets on the inbound direction.
func (c *Conn) Read(p []byte) (int, error) {
	if err := c.awaitPartition(Inbound); err != nil {
		return 0, err
	}
	c.mu.Lock()
	if c.budgetR == 0 {
		c.mu.Unlock()
		c.Conn.Close()
		return 0, ErrInjectedReset
	}
	limit := len(p)
	if c.budgetR > 0 && limit > c.budgetR {
		limit = c.budgetR
	}
	c.mu.Unlock()
	n, err := c.Conn.Read(p[:limit])
	if n > 0 {
		c.mu.Lock()
		if c.cfg.CorruptProb > 0 && c.rng.Float64() < c.cfg.CorruptProb {
			p[c.rng.Intn(n)] ^= 0xff
		}
		if c.budgetR > 0 {
			c.budgetR -= n
		}
		c.mu.Unlock()
	}
	return n, err
}
