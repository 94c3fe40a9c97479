package collector

import (
	"bufio"
	crand "crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/metrics"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

// ClientConfig tunes the asynchronous reliable sender. Zero fields take
// defaults.
type ClientConfig struct {
	// MaxQueue bounds batches accepted by Deliver but not yet handed to
	// the wire (default 1024). Overflow drops the oldest batch — the
	// switch CPU has finite memory — and is counted in DroppedBatches.
	MaxQueue int
	// MaxInflight bounds batches written but not yet acked; they are
	// retained for retransmission after a connection drop (default 256).
	MaxInflight int
	// DialTimeout bounds one connection attempt (default 2s).
	DialTimeout time.Duration
	// WriteTimeout is the deadline of one flush of the write buffer — as
	// many frames as it holds (default 5s).
	WriteTimeout time.Duration
	// BackoffMin/BackoffMax bound the jittered exponential reconnect
	// backoff (defaults 50ms / 2s).
	BackoffMin time.Duration
	BackoffMax time.Duration
	// FlushTimeout bounds how long Flush waits for the channel to drain
	// (default 10s).
	FlushTimeout time.Duration
	// CloseTimeout bounds the graceful drain in Close before the
	// connection is torn down (default 2s).
	CloseTimeout time.Duration
	// Endpoints is the failover list, tried in order after the primary
	// address when it is unreachable.
	Endpoints []string
	// PrimaryRetryInterval is how often a client running on a backup
	// endpoint probes the primary for recovery; a successful probe
	// promotes the channel back (default 3s). Ignored without Endpoints.
	PrimaryRetryInterval time.Duration
	// PreserveSeq keeps a non-zero Seq already present on a delivered
	// batch instead of assigning a fresh one. The fabric's drain path
	// sets it when re-routing another client's pending batches after a
	// ring change: the original (switch, seq) identity must survive the
	// re-route, or the destination could store the same batch twice.
	PreserveSeq bool
}

func (c ClientConfig) withDefaults() ClientConfig {
	if c.MaxQueue <= 0 {
		c.MaxQueue = 1024
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 256
	}
	if c.DialTimeout <= 0 {
		c.DialTimeout = 2 * time.Second
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 5 * time.Second
	}
	if c.BackoffMin <= 0 {
		c.BackoffMin = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.FlushTimeout <= 0 {
		c.FlushTimeout = 10 * time.Second
	}
	if c.CloseTimeout <= 0 {
		c.CloseTimeout = 2 * time.Second
	}
	if c.PrimaryRetryInterval <= 0 {
		c.PrimaryRetryInterval = 3 * time.Second
	}
	return c
}

// pendingBatch is one batch the client still owes the collector.
type pendingBatch struct {
	b      *fevent.Batch
	sentAt time.Time // last write, for ack-latency accounting
	writes int       // >1 ⇒ retransmitted
}

// Client is a core.EventSink that ships batches to a collector Server
// over TCP with at-least-once semantics: Deliver enqueues without
// touching the network, a dedicated sender goroutine dials, writes and
// reconnects with jittered exponential backoff, and every batch is kept
// in an in-flight window until the server's cumulative ack covers its
// sequence number. A connection drop therefore retransmits instead of
// losing data; the Store deduplicates replays by (switch, sequence).
//
// Given failover Endpoints, the client fails over:
// a dial failure moves to the next endpoint immediately, the jittered
// backoff applies only once the whole list has refused a cycle, and the
// in-flight window carries across — batches unacked on the dead
// endpoint are retransmitted to the new one and deduplicated there by
// (switch, seq), so a failover can never double-deliver. While running
// on a backup, a background probe redials the primary every
// PrimaryRetryInterval and, once it answers, promotes the channel back
// as soon as the backup has acked its window.
type Client struct {
	endpoints []string // ordered; [0] is the primary
	cfg       ClientConfig

	mu        sync.Mutex
	cond      *sync.Cond
	queue     []*fevent.Batch // sequenced, not yet written
	inflight  []pendingBatch  // written (or awaiting rewrite), not yet acked
	sent      int             // prefix of inflight already written on the current conn
	nextSeq   uint64
	conn      net.Conn
	connErr   error // terminal error of the current conn
	connected bool
	homing    bool // the primary answered: take no new batch on this conn
	dialFails int  // consecutive failures since the last successful dial
	closed    bool
	forced    bool // Close gave up on graceful drain

	// Channel-health counters. The client is concurrent (caller, sender,
	// ack reader), so these are atomic obs instruments mutated in place —
	// a /metrics scrape reads them without taking mu; Stats() snapshots
	// the same instruments.
	connects, reconnects, dialFailures obs.Counter
	sentBatches, ackedBatches          obs.Counter
	retransmits, droppedBatches        obs.Counter
	failovers, promotions              obs.Counter
	highWater                          obs.MaxGauge
	ackLat                             *obs.Histogram

	closeOnce  sync.Once
	closeCh    chan struct{}
	senderDone chan struct{}
}

// NewClientConfig creates a client whose primary endpoint is addr, failing
// over to cfg.Endpoints; the zero ClientConfig is the default tuning. The
// first connection attempt happens asynchronously once the first batch is
// delivered.
func NewClientConfig(addr string, cfg ClientConfig) *Client {
	c := &Client{
		endpoints:  append([]string{addr}, cfg.Endpoints...),
		cfg:        cfg.withDefaults(),
		ackLat:     obs.NewHistogram(obs.LatencyBuckets()),
		closeCh:    make(chan struct{}),
		senderDone: make(chan struct{}),
	}
	// Distinct client lifetimes must not reuse (switch, seq) dedup keys:
	// a restarted exporter counting again from 1 would have its first
	// batches silently discarded as replays of the previous process. Each
	// client therefore counts from a random starting sequence, drawn below
	// 2^62 so that counting up never wraps to 0 — the unsequenced mark.
	var r [8]byte
	if _, err := crand.Read(r[:]); err == nil {
		c.nextSeq = binary.BigEndian.Uint64(r[:]) >> 2
	}
	c.cond = sync.NewCond(&c.mu)
	go c.senderLoop()
	return c
}

// Deliver implements core.EventSink. It assigns the batch its delivery
// sequence number and enqueues it; no network I/O happens on the
// caller's path. A batch of more than fevent.MaxBatchRecords events is
// dropped and counted instead: no frame can carry it, and once sequenced
// it would be retransmitted first on every connection, for ever.
func (c *Client) Deliver(b *fevent.Batch) {
	if len(b.Events) > fevent.MaxBatchRecords {
		c.droppedBatches.Inc()
		return
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.droppedBatches.Inc()
		return
	}
	if c.cfg.PreserveSeq && b.Seq != 0 {
		if b.Seq > c.nextSeq {
			c.nextSeq = b.Seq
		}
	} else {
		c.nextSeq++
		b.Seq = c.nextSeq
	}
	if b.Trace.Sampled() {
		// The enqueue span is the exporter's admission record: Detail is
		// the queue depth the batch landed behind. Later hops (retransmit,
		// failover, server ingest) parent onto it.
		sp := trace.Begin(b.Trace, trace.StageExportEnqueue)
		sp.SwitchID = b.SwitchID
		sp.Seq = b.Seq
		sp.Events = uint32(len(b.Events))
		sp.Detail = uint32(len(c.queue))
		b.Trace.Parent = sp.SpanID
		trace.Finish(&sp)
	}
	c.queue = append(c.queue, b)
	if len(c.queue) > c.cfg.MaxQueue {
		c.queue = c.queue[1:]
		c.droppedBatches.Inc()
	}
	c.highWater.Observe(int64(len(c.queue) + len(c.inflight)))
	c.mu.Unlock()
	c.cond.Broadcast()
}

// Flush blocks until every delivered batch has been acked by the
// collector, the collector proves unreachable, or FlushTimeout passes.
func (c *Client) Flush() error {
	timer := time.AfterFunc(c.cfg.FlushTimeout, c.cond.Broadcast)
	defer timer.Stop()
	deadline := time.Now().Add(c.cfg.FlushTimeout)
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		pending := len(c.queue) + len(c.inflight)
		if pending == 0 {
			return nil
		}
		if !c.connected && c.dialFails >= len(c.endpoints) {
			return fmt.Errorf("collector: %d batches undelivered (all %d endpoints unreachable)", pending, len(c.endpoints))
		}
		if c.closed {
			return errors.New("collector: client closed")
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("collector: flush timed out with %d batches unacked", pending)
		}
		c.cond.Wait()
	}
}

// Close drains the queue gracefully for up to CloseTimeout, then tears
// the connection down. It returns an error if batches were abandoned.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.cond.Broadcast()
	select {
	case <-c.senderDone:
	case <-time.After(c.cfg.CloseTimeout):
		c.mu.Lock()
		c.forced = true
		if c.conn != nil {
			c.conn.Close()
		}
		c.mu.Unlock()
		c.cond.Broadcast()
		select {
		case <-c.senderDone:
		case <-time.After(c.cfg.CloseTimeout):
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.queue) + len(c.inflight); n > 0 {
		return fmt.Errorf("collector: closed with %d undelivered batches", n)
	}
	return nil
}

// Takeover stops the client immediately — no graceful drain — and
// returns every batch it still owes the collector, in-flight window
// first, in sequence order. The fabric uses it when a ring change
// retires a shard's client: the pending batches are re-delivered to the
// new owner through a PreserveSeq client, so their (switch, seq)
// identities — and therefore dedup — carry across the re-route.
func (c *Client) Takeover() []*fevent.Batch {
	c.mu.Lock()
	c.closed = true
	c.forced = true
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	c.closeOnce.Do(func() { close(c.closeCh) })
	c.cond.Broadcast()
	<-c.senderDone
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]*fevent.Batch, 0, len(c.inflight)+len(c.queue))
	for i := range c.inflight {
		out = append(out, c.inflight[i].b)
	}
	out = append(out, c.queue...)
	c.inflight, c.queue = nil, nil
	return out
}

// Stats snapshots the channel-health counters.
func (c *Client) Stats() metrics.ChannelStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return metrics.ChannelStats{
		Connects:       c.connects.Load(),
		Reconnects:     c.reconnects.Load(),
		DialFailures:   c.dialFailures.Load(),
		BatchesSent:    c.sentBatches.Load(),
		BatchesAcked:   c.ackedBatches.Load(),
		Retransmits:    c.retransmits.Load(),
		DroppedBatches: c.droppedBatches.Load(),
		Failovers:      c.failovers.Load(),
		Promotions:     c.promotions.Load(),
		QueueDepth:     len(c.queue),
		InflightDepth:  len(c.inflight),
		HighWater:      int(c.highWater.Load()),
		AckLatencyUs:   c.ackLat.Snapshot(),
	}
}

// RegisterMetrics exposes the channel-health instruments on r. The extra
// labels (if any) distinguish multiple clients in one process.
func (c *Client) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	r.RegisterCounter(obs.MChanConnects, "TCP connections established to the collector.", &c.connects, labels...)
	r.RegisterCounter(obs.MChanReconnects, "Connections beyond the first (losses recovered by redial).", &c.reconnects, labels...)
	r.RegisterCounter(obs.MChanDialFailures, "Failed connection attempts.", &c.dialFailures, labels...)
	r.RegisterCounter(obs.MChanSentBatches, "Batch frames written to the wire (including rewrites).", &c.sentBatches, labels...)
	r.RegisterCounter(obs.MChanAckedBatches, "Batches covered by a server cumulative ack.", &c.ackedBatches, labels...)
	r.RegisterCounter(obs.MChanRetransmits, "Batch frames rewritten after a connection drop.", &c.retransmits, labels...)
	r.RegisterCounter(obs.MChanDroppedBatches, "Batches dropped on queue overflow, after close, or too large for any frame.", &c.droppedBatches, labels...)
	r.RegisterCounter(obs.MChanFailovers, "Switches to a different collector endpoint.", &c.failovers, labels...)
	r.RegisterCounter(obs.MChanPromotions, "Returns to the primary collector endpoint.", &c.promotions, labels...)
	r.GaugeFunc(obs.MChanBacklog, "Batches delivered but not yet acked (queue + inflight).", func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(len(c.queue) + len(c.inflight))
	}, labels...)
	r.RegisterMaxGauge(obs.MChanBacklogHW, "Deepest the unacked backlog has been.", &c.highWater, labels...)
	r.RegisterHistogram(obs.MChanAckLatency, "Microseconds from last write of a batch to its covering ack.", c.ackLat, labels...)
}

// errPromote is the sentinel the primary probe fails a backup connection
// with: not a network fault, just "the primary is back — move home".
var errPromote = errors.New("collector: primary endpoint recovered")

// senderLoop owns all network I/O: it dials (with backoff), hands the
// connection to writeLoop/ackReader, and retries until closed. With
// several endpoints it walks the list on dial failures — one backoff
// budget shared across the whole list, slept only after a full cycle of
// refusals, so one dead endpoint never slows failover to a live one.
func (c *Client) senderLoop() {
	defer close(c.senderDone)
	backoff := c.cfg.BackoffMin
	ep := 0            // endpoint to try next
	lastConnected := 0 // endpoint of the previous successful dial
	cycleFails := 0    // consecutive endpoints refused since the last success
	for {
		c.mu.Lock()
		for !c.closed && len(c.queue) == 0 && len(c.inflight) == 0 {
			c.cond.Wait()
		}
		if c.forced || (c.closed && len(c.queue) == 0 && len(c.inflight) == 0) {
			c.mu.Unlock()
			return
		}
		closing := c.closed
		c.mu.Unlock()

		conn, err := net.DialTimeout("tcp", c.endpoints[ep], c.cfg.DialTimeout)
		if err != nil {
			c.dialFailures.Inc()
			c.mu.Lock()
			c.dialFails++
			unreachable := c.dialFails >= len(c.endpoints)
			c.mu.Unlock()
			if unreachable {
				// Only a full cycle of refusals means "collector
				// unreachable" to Flush — a dead primary with a live
				// backup is a degraded channel, not a broken one.
				c.cond.Broadcast()
			}
			if closing && unreachable {
				return // closing and nowhere to drain to: abandon the backlog
			}
			ep = (ep + 1) % len(c.endpoints)
			cycleFails++
			if cycleFails >= len(c.endpoints) {
				c.sleepBackoff(&backoff)
				cycleFails = 0
			}
			continue
		}
		cycleFails = 0
		backoff = c.cfg.BackoffMin
		if ep != lastConnected {
			if ep == 0 {
				c.promotions.Inc()
			} else {
				c.failovers.Inc()
			}
			lastConnected = ep
			c.recordFailoverSpans(ep)
		}
		err = c.runConn(conn, ep != 0)
		if errors.Is(err, errPromote) {
			ep = 0 // probe saw the primary up: go home
		}
		// Any other failure retries the same endpoint first; its dial
		// failing is what advances the walk.
	}
}

// recordFailoverSpans notes an endpoint switch on every traced batch the
// client still owes the collector. The in-flight window survives a
// failover (or a promotion back to the primary), so each sampled batch
// gains an export-failover span — Detail is the endpoint index now
// serving it — and its upcoming retransmission parents onto that span.
func (c *Client) recordFailoverSpans(ep int) {
	now := trace.Now()
	c.mu.Lock()
	for i := range c.inflight {
		b := c.inflight[i].b
		if !b.Trace.Sampled() {
			continue
		}
		sp := trace.Begin(b.Trace, trace.StageExportFailover)
		sp.Start, sp.End = now, now
		sp.SwitchID = b.SwitchID
		sp.Seq = b.Seq
		sp.Events = uint32(len(b.Events))
		sp.Detail = uint32(ep)
		b.Trace.Parent = sp.SpanID
		trace.Record(sp)
	}
	c.mu.Unlock()
}

// jitteredDelay draws one backoff sleep: uniform in
// [backoff/2, backoff], so consecutive retry storms from many exporters
// decorrelate while the delay never collapses below half the budget.
func jitteredDelay(backoff time.Duration) time.Duration {
	return backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
}

// sleepBackoff sleeps the jittered backoff (interruptible by Close) and
// doubles it up to the cap.
func (c *Client) sleepBackoff(backoff *time.Duration) {
	t := time.NewTimer(jitteredDelay(*backoff))
	defer t.Stop()
	select {
	case <-t.C:
	case <-c.closeCh:
	}
	*backoff *= 2
	if *backoff > c.cfg.BackoffMax {
		*backoff = c.cfg.BackoffMax
	}
}

// runConn drives one connection until it fails or the client drains,
// returning the connection's terminal error. probePrimary (set on backup
// endpoints) runs the health probe that redials the primary and fails
// this connection with errPromote once it answers.
func (c *Client) runConn(conn net.Conn, probePrimary bool) error {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(30 * time.Second)
	}
	c.mu.Lock()
	c.conn = conn
	c.connected = true
	c.connErr = nil
	c.dialFails = 0
	c.connects.Inc()
	if c.connects.Load() > 1 {
		c.reconnects.Inc()
	}
	c.sent = 0 // every in-flight batch must be rewritten on this conn
	c.homing = false
	c.mu.Unlock()
	c.cond.Broadcast()

	probeStop := make(chan struct{})
	if probePrimary {
		go c.primaryProbe(conn, probeStop)
	}
	readerDone := make(chan struct{})
	go c.ackReader(conn, readerDone)
	err := c.writeLoop(conn)
	c.failConn(conn, err)
	<-readerDone
	close(probeStop)

	c.mu.Lock()
	term := c.connErr
	c.connected = false
	c.conn = nil
	c.sent = 0
	c.mu.Unlock()
	c.cond.Broadcast()
	return term
}

// primaryProbe redials the primary endpoint every PrimaryRetryInterval
// while the client runs on a backup. A successful dial is only a health
// check — the probe connection is closed immediately — but it fails the
// backup connection with errPromote, and the sender loop reconnects to
// the primary with the in-flight window intact. It waits for the backup
// to ack that window first (one more interval at most, then it goes
// anyway): a frame the backup stored but had not acked would be sent to
// the primary again and stored by both, which dedup cannot see.
func (c *Client) primaryProbe(conn net.Conn, stop <-chan struct{}) {
	t := time.NewTicker(c.cfg.PrimaryRetryInterval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-c.closeCh:
			return
		case <-t.C:
			p, err := net.DialTimeout("tcp", c.endpoints[0], c.cfg.DialTimeout)
			if err != nil {
				continue
			}
			p.Close()
			c.mu.Lock()
			c.homing = true // no new batch: the window can only drain
			idle := len(c.inflight) == 0
			c.mu.Unlock()
			c.cond.Broadcast()
			if !idle {
				// The ack reader fails conn as the last ack lands.
				drain := time.NewTimer(c.cfg.PrimaryRetryInterval)
				select {
				case <-stop:
				case <-c.closeCh:
				case <-drain.C:
				}
				drain.Stop()
			}
			c.failConn(conn, errPromote)
			return
		}
	}
}

// failConn records the terminal error of conn (once) and closes it,
// waking both the writer and any Flush/Close waiters.
func (c *Client) failConn(conn net.Conn, err error) {
	c.mu.Lock()
	if c.conn == conn && c.connErr == nil {
		if err == nil {
			err = net.ErrClosed
		}
		c.connErr = err
	}
	c.mu.Unlock()
	conn.Close()
	c.cond.Broadcast()
}

// writableLocked reports whether a frame can be written right now:
// either an in-flight batch awaits (re)transmission on this conn, or the
// queue has work, the window has room and the client is not going home.
func (c *Client) writableLocked() bool {
	return c.sent < len(c.inflight) ||
		(!c.homing && len(c.queue) > 0 && len(c.inflight) < c.cfg.MaxInflight)
}

// writeLoop writes frames until the connection fails or (when closing)
// the channel drains. Network writes happen outside the mutex.
func (c *Client) writeLoop(conn net.Conn) error {
	bw := bufio.NewWriterSize(conn, 64<<10)
	// The write deadline is per flush: only a flush touches the wire.
	flush := func() error {
		conn.SetWriteDeadline(time.Now().Add(c.cfg.WriteTimeout))
		return bw.Flush()
	}
	for {
		c.mu.Lock()
		if c.connErr != nil {
			err := c.connErr
			c.mu.Unlock()
			return err
		}
		var batch *fevent.Batch
		drained := c.closed && len(c.queue) == 0 && len(c.inflight) == 0
		if !drained && c.writableLocked() {
			if c.sent < len(c.inflight) {
				p := &c.inflight[c.sent]
				p.writes++
				if p.writes > 1 {
					c.retransmits.Inc()
					if p.b.Trace.Sampled() {
						// Each rewrite of a traced frame gets its own span
						// (Detail = total writes so far), and the rewritten
						// frame carries the new parent, so the server-side
						// ingest span chains onto the retransmission that
						// actually delivered it.
						sp := trace.Begin(p.b.Trace, trace.StageExportRetransmit)
						sp.SwitchID = p.b.SwitchID
						sp.Seq = p.b.Seq
						sp.Events = uint32(len(p.b.Events))
						sp.Detail = uint32(p.writes)
						p.b.Trace.Parent = sp.SpanID
						trace.Finish(&sp)
					}
				}
				p.sentAt = time.Now()
				batch = p.b
			} else {
				b := c.queue[0]
				c.queue = c.queue[1:]
				c.inflight = append(c.inflight, pendingBatch{b: b, sentAt: time.Now(), writes: 1})
				batch = b
			}
			c.sent++
			c.sentBatches.Inc()
		}
		c.mu.Unlock()

		if batch != nil {
			// Encode straight into the write buffer. A frame that does not
			// fit sends the buffer to the wire first (a frame larger than
			// the whole buffer then follows it directly, under the same
			// deadline).
			if frameLen(batch) > bw.Available() {
				if err := flush(); err != nil {
					return err
				}
			}
			frame, err := AppendFrame(bw.AvailableBuffer(), batch)
			if err != nil {
				return err
			}
			if _, err := bw.Write(frame); err != nil {
				return err
			}
			continue
		}
		// Nothing writable right now: push buffered frames to the wire
		// before idling so the server can ack them.
		if bw.Buffered() > 0 {
			if err := flush(); err != nil {
				return err
			}
		}
		if drained {
			return nil
		}
		c.mu.Lock()
		for c.connErr == nil && !c.writableLocked() &&
			!(c.closed && len(c.queue) == 0 && len(c.inflight) == 0) {
			c.cond.Wait()
		}
		c.mu.Unlock()
	}
}

// ackReader consumes cumulative acks on conn, releasing acked batches
// from the in-flight window.
func (c *Client) ackReader(conn net.Conn, done chan struct{}) {
	defer close(done)
	br := bufio.NewReaderSize(conn, 512)
	for {
		seq, err := readAck(br)
		if err != nil {
			c.failConn(conn, err)
			return
		}
		now := time.Now()
		c.mu.Lock()
		if seq > c.nextSeq {
			c.mu.Unlock()
			c.failConn(conn, fmt.Errorf("collector: ack for seq %d never sent", seq))
			return
		}
		n := 0
		for n < len(c.inflight) && c.inflight[n].b.Seq <= seq {
			c.ackLat.Observe(float64(now.Sub(c.inflight[n].sentAt).Microseconds()))
			n++
		}
		if n > 0 {
			c.inflight = c.inflight[n:]
			c.sent -= n
			if c.sent < 0 {
				c.sent = 0
			}
			c.ackedBatches.Add(uint64(n))
		}
		home := c.homing && len(c.inflight) == 0
		c.mu.Unlock()
		if home {
			c.failConn(conn, errPromote)
		}
		if n > 0 {
			c.cond.Broadcast()
		}
	}
}
