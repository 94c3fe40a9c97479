package collector

import (
	"bufio"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/metrics"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

// ServerConfig tunes the ingest server. Zero fields take defaults.
type ServerConfig struct {
	// ReadTimeout is the deadline of one read that can block — the next
	// frame is not yet wholly in the connection's read buffer: a
	// connection that goes silent longer than this is dropped (default
	// 2m; the client reconnects and retransmits).
	ReadTimeout time.Duration
	// MaxConns caps concurrent ingest connections; extra connections are
	// closed immediately (default 128).
	MaxConns int
	// Listener, when non-nil, is served instead of binding the address —
	// the hook fault-injection harnesses use to interpose a flaky wire (see
	// internal/faultconn).
	Listener net.Listener

	// WAL, when non-nil, makes the server durable: every ingested frame
	// is appended to the log and its ack is withheld until the record is
	// fsynced — an ack then means "survives a collector crash". Recover
	// the paired Store with RecoverStore before constructing the server.
	WAL *wal.WAL
	// MemoryBudget bounds the store's estimated resident bytes
	// (Store.MemoryBytes) via the admission ladder — acks slow at 70 % of
	// it, a WAL server sheds at 90 %; 0 disables admission control.
	MemoryBudget int64

	// TraceShard labels this server's ingest and WAL-fsync spans with the
	// owning fabric shard ID (0 for standalone collectors).
	TraceShard uint32
}

// ackTimeout is the write deadline for one ack frame; keepAlivePeriod
// paces the TCP keepalives of both ends of an ingest connection;
// ackSlowdown is the delay applied on the slow rung to every ack written —
// one per read burst.
const (
	ackTimeout      = 5 * time.Second
	keepAlivePeriod = 30 * time.Second
	ackSlowdown     = 2 * time.Millisecond
)

func (c ServerConfig) withDefaults() ServerConfig {
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 2 * time.Minute
	}
	if c.MaxConns <= 0 {
		c.MaxConns = 128
	}
	return c
}

// Server ingests event batches over TCP into a Store and acknowledges
// the delivered frames of each read burst with one cumulative ack, making
// the channel at-least-once end to end. With a WAL attached it is also durable:
// acks are gated on fsync (group-committed in internal/collector/wal),
// checkpoints snapshot the store and truncate the log, and admission
// watermarks shed load instead of letting an ingest burst grow memory
// without bound. It runs on a Service, applies per-connection read
// deadlines and TCP keepalives, and caps concurrent connections.
type Server struct {
	store *Store
	svc   *Service
	cfg   ServerConfig
	wal   *wal.WAL
	admit *admission

	// ingestMu is the checkpoint barrier: every frame's append+apply
	// holds it shared, Checkpoint holds it exclusive across the segment
	// cut and the store capture, so no record can sit in the
	// logged-but-not-applied window while the snapshot boundary moves.
	ingestMu sync.RWMutex

	mu sync.Mutex // guards durErr

	// durFailed flips (once, permanently) when the WAL poisons itself:
	// an fsync or write failed, so no further ack promise can be kept.
	// The failed rung sits above shed on the degradation ladder — the
	// server stops accepting ingest entirely (existing connections are
	// closed, new ones refused at accept) so multi-endpoint clients
	// fail over instead of retrying into a zombie, and the state
	// surfaces through AdmitState, Healthz, the durability-failed
	// gauge, and the shard's fleet-status row. durErr (under mu) holds
	// the poison error.
	durFailed atomic.Bool
	durErr    error

	// Ingest-side counters. The server is concurrent (accept loop plus one
	// goroutine per connection), so these are atomic obs instruments: a
	// /metrics scrape reads them without taking mu. The accept retries are
	// the Service's.
	connsAccepted, connsRejected obs.Counter
	frames, frameErrors          obs.Counter
	acks, ackWriteErrors         obs.Counter
	walAppendErrors              obs.Counter
	// ingestLag measures, per frame, wall-clock microseconds from its
	// arrival — the read that filled the buffer with its burst completed —
	// to its covering ack hitting the socket: the collector-side component
	// of event staleness. It includes the frame's wait behind the earlier
	// frames of its burst and, with a WAL attached, the group-commit fsync
	// wait. Every frame of a burst records the same value.
	ingestLag *obs.Histogram
}

// NewServerConfig starts an ingest server on addr (e.g. "127.0.0.1:0"),
// or on cfg.Listener when set; the zero ServerConfig is the default
// tuning. Use Addr to learn the bound address.
func NewServerConfig(store *Store, addr string, cfg ServerConfig) (*Server, error) {
	svc, err := Listen(addr, cfg.Listener)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	s := &Server{store: store, svc: svc, cfg: cfg, wal: cfg.WAL,
		admit:     newAdmission(cfg.MemoryBudget, cfg.WAL != nil),
		ingestLag: obs.NewHistogram(obs.LatencyBuckets())}
	svc.Start(s.admitConn, s.serve)
	return s, nil
}

// admitConn is the ingest Service's admission check. A durability-failed
// server refuses every connection: the immediate close reads as a dead
// endpoint to the client, which fails over instead of waiting on acks
// that can never come. Past MaxConns live ones, it refuses too.
func (s *Server) admitConn(live int) bool {
	if s.durFailed.Load() || live >= s.cfg.MaxConns {
		s.connsRejected.Inc()
		return false
	}
	s.connsAccepted.Inc()
	return true
}

// Addr returns the listening address.
func (s *Server) Addr() string { return s.svc.Addr() }

// Stats snapshots the ingest-side counters.
func (s *Server) Stats() metrics.IngestStats {
	return metrics.IngestStats{
		ConnsAccepted:  s.connsAccepted.Load(),
		ConnsRejected:  s.connsRejected.Load(),
		AcceptRetries:  s.svc.retries.Load(),
		Frames:         s.frames.Load(),
		FrameErrors:    s.frameErrors.Load(),
		Acks:           s.acks.Load(),
		AckWriteErrors: s.ackWriteErrors.Load(),
	}
}

// ShedBatches reports how many batches the shed rung has WAL-ed without
// indexing since startup (0 without admission control).
func (s *Server) ShedBatches() uint64 {
	if s.admit == nil {
		return 0
	}
	return s.admit.shedBatches.Load()
}

// AdmitState returns the current admission-ladder rung as a string
// ("ok", "slow", "shed", or "durability-failed" once the WAL has
// poisoned itself).
func (s *Server) AdmitState() string {
	if s.durFailed.Load() {
		return admitFailedState
	}
	return s.admit.current().String()
}

// failDurability moves the server to the durability-failed rung: the
// sticky end state entered when the WAL reports a poison error. The
// first caller records the error and closes every live ingest
// connection; admitConn then refuses new ones, so clients fail over to a
// healthy endpoint instead of retransmitting into a log that can no
// longer keep an ack's promise.
func (s *Server) failDurability(err error) {
	s.mu.Lock()
	if s.durErr == nil {
		s.durErr = err
	}
	already := s.durFailed.Swap(true)
	s.mu.Unlock()
	if !already {
		s.svc.each(func(c net.Conn) { c.Close() })
	}
}

// DurabilityErr returns the WAL poison error that moved the server to
// the durability-failed rung, or nil while the log is healthy.
func (s *Server) DurabilityErr() error {
	if !s.durFailed.Load() {
		// The WAL may have been poisoned through a path that bypasses
		// ingest — the fabric's handoff appends, a background checkpoint.
		// Any health probe promotes the poison to the full ladder rung, so
		// the accept loop starts refusing even before a frame trips it.
		if s.wal == nil {
			return nil
		}
		err := s.wal.Err()
		if err == nil {
			return nil
		}
		s.failDurability(err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.durErr
}

// Healthz is the /healthz hook: nil while the server can keep its ack
// promises, the poison error once it cannot. Wire it into
// obs.Server.SetHealth so the endpoint flips to 503 when the disk dies.
func (s *Server) Healthz() error { return s.DurabilityErr() }

// ScrubWAL runs one scrub pass over the WAL's sealed segments and
// installed snapshots, quarantining any that fail their CRCs — the
// background bit-rot check. Drive it from a ticker (netseerd's
// -scrub-interval); passes are cheap on a healthy log and serialize
// against each other.
func (s *Server) ScrubWAL() (wal.ScrubReport, error) {
	if s.wal == nil {
		return wal.ScrubReport{}, errors.New("collector: no WAL attached")
	}
	return s.wal.Scrub()
}

// RegisterMetrics exposes the ingest instruments on r, including the
// WAL and admission series when configured.
func (s *Server) RegisterMetrics(r *obs.Registry, labels ...obs.Label) {
	r.RegisterCounter(obs.MIngestConnsAccepted, &s.connsAccepted, labels...)
	r.RegisterCounter(obs.MIngestConnsRejected, &s.connsRejected, labels...)
	r.RegisterCounter(obs.MIngestAcceptRetries, &s.svc.retries, labels...)
	r.RegisterCounter(obs.MIngestFrames, &s.frames, labels...)
	r.RegisterCounter(obs.MIngestFrameErrors, &s.frameErrors, labels...)
	r.RegisterCounter(obs.MIngestAcks, &s.acks, labels...)
	r.RegisterCounter(obs.MIngestAckWriteErrors, &s.ackWriteErrors, labels...)
	r.RegisterHistogram(obs.MIngestLag, s.ingestLag, labels...)
	r.Func(obs.MStoreBytes, func() float64 {
		return float64(s.store.MemoryBytes())
	}, labels...)
	s.admit.registerMetrics(r, labels...)
	if s.wal != nil {
		r.RegisterCounter(obs.MWALAppendErrors, &s.walAppendErrors, labels...)
		w := s.wal
		r.Func(obs.MWALAppends, func() float64 {
			return float64(w.Stats().Appends)
		}, labels...)
		r.Func(obs.MWALFsyncs, func() float64 {
			return float64(w.Stats().Fsyncs)
		}, labels...)
		r.Func(obs.MWALSnapshots, func() float64 {
			return float64(w.Stats().Snapshots)
		}, labels...)
		r.Func(obs.MWALSegmentsDropped, func() float64 {
			return float64(w.Stats().SegmentsDropped)
		}, labels...)
		r.Func(obs.MWALSegments, func() float64 {
			return float64(w.Stats().Segments)
		}, labels...)
		r.Func(obs.MWALSizeBytes, func() float64 {
			return float64(w.Stats().SizeBytes)
		}, labels...)
		r.Func(obs.MWALPending, func() float64 {
			return float64(w.Stats().PendingDurable)
		}, labels...)
		r.Func(obs.MWALScrubs, func() float64 {
			return float64(w.Stats().Scrubs)
		}, labels...)
		r.Func(obs.MWALQuarantined, func() float64 {
			return float64(w.Stats().SegmentsQuarantined)
		}, labels...)
		r.Func(obs.MDurabilityFailed, func() float64 {
			if s.durFailed.Load() {
				return 1
			}
			return 0
		}, labels...)
	}
}

// maxBurst caps the frames folded into one ackPoint, so a connection that
// always has the next frame buffered still acks at a bounded interval —
// the client's default in-flight window, the most it sends unacked.
const maxBurst = 256

// ackPoint is one read burst awaiting acknowledgement: the frames parsed
// out of one fill of the connection's read buffer, acked together. seq is
// the highest delivery sequence among them — the cumulative ack covers
// them all — serial the highest WAL serial gating that ack (0 = no
// durability wait), frames how many it stands for, and arrived when the
// fill that carried them completed (for the ingest-lag histogram). A
// point with barrier set carries no ack: the acker closes the channel
// once every earlier ack is on the wire, letting the read loop flush the
// pipeline before it blocks on the network again.
type ackPoint struct {
	seq, serial uint64
	frames      uint64
	arrived     time.Time
	barrier     chan struct{}

	// tr is the trace context of the last frame in the burst that carried
	// one; its ID becomes the lag bucket's exemplar. A sampled frame is a
	// point of its own, and the rest is its span plumbing: walStart is
	// when its WAL append was logged — the acker closes the wal-fsync
	// span (parented onto the ingest span) once WaitDurable covers serial.
	tr       trace.Context
	walStart int64
	sw       uint16
	events   uint32
}

// add folds one applied frame into the burst.
func (ap *ackPoint) add(p *Payload, serial uint64) {
	ap.seq = max(ap.seq, p.Seq)
	ap.serial = max(ap.serial, serial)
	ap.frames++
	if p.Trace.Valid() {
		ap.tr = p.Trace
	}
}

// frameBuffered reports whether the next frame is wholly in br's buffer,
// so that reading it cannot block. A frame larger than the buffer never
// is; neither is a length no frame may have, which the read then rejects.
func frameBuffered(br *bufio.Reader) bool {
	if br.Buffered() < wal.RecordHdrLen {
		return false
	}
	hdr, _ := br.Peek(4)
	return uint64(br.Buffered()) >= wal.RecordHdrLen+uint64(binary.BigEndian.Uint32(hdr))
}

// serve ingests one connection a read burst at a time: every frame is
// verified, logged and applied as it is parsed, but the frames one fill
// of the read buffer delivered share one ackPoint — one durability wait,
// one ack write, one lag observation — and one payload buffer serves the
// whole connection: a frame stays the bytes it arrived as, viewed in place
// (wal.Append and Store.DeliverPayload both copy).
func (s *Server) serve(conn net.Conn) {
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetKeepAlive(true)
		tc.SetKeepAlivePeriod(keepAlivePeriod)
	}

	// The acker runs behind the read loop so WAL group commit can batch
	// many in-flight bursts under one fsync: the read loop keeps
	// ingesting while earlier bursts wait for durability. The bounded
	// channel is the pipeline depth; when the acker stalls (fsync, ack
	// slowdown), the read loop eventually blocks — backpressure reaches
	// the exporter through its in-flight window.
	acks := make(chan ackPoint, 256)
	ackerDone := make(chan struct{})
	go s.ackLoop(conn, acks, ackerDone)

	br := bufio.NewReaderSize(conn, 64<<10)
	var (
		p       Payload
		payload []byte
		burst   ackPoint
		owed    bool // a point is in the pipeline with no barrier behind it
		err     error
	)
	// hand gives the burst so far to the acker and starts the next one,
	// which the same fill brought.
	hand := func() {
		if burst.frames > 0 {
			acks <- burst
			burst = ackPoint{arrived: burst.arrived}
			owed = true
		}
	}
	for {
		blocking := !frameBuffered(br)
		if blocking {
			// The next read can block, so the burst ends here: its ack goes
			// out while the rest of the frame is awaited. And about to block
			// on an empty buffer with acks still in the pipeline: flush them
			// first. A frame burst pipelines freely (that is what group
			// commit feeds on), but the server never reads more of a lossy
			// link's budget while it still owes acks for frames it has
			// already consumed — otherwise a connection that dies mid-read
			// takes every pending ack down with it and the exporter makes no
			// progress at all.
			hand()
			if owed && br.Buffered() == 0 {
				barrier := make(chan struct{})
				acks <- ackPoint{barrier: barrier}
				<-barrier
				owed = false
			}
			conn.SetReadDeadline(time.Now().Add(s.cfg.ReadTimeout))
		}
		p, payload, err = readFramePayload(br, payload)
		if err != nil {
			// A clean close lands exactly on a frame boundary (io.EOF);
			// anything else — truncation, even right after a header, bad
			// CRC, oversized length — is a frame error worth counting.
			if err != io.EOF {
				s.frameErrors.Inc()
			}
			break
		}
		if blocking {
			burst.arrived = time.Now() // the fill that completed this frame brought the burst
		}
		state := admitOK
		if s.admit != nil { // no budget, no ladder: skip the store's read lock
			state = s.admit.update(s.store.MemoryBytes())
		}

		// The ingest span covers arrival to store-applied; the WAL append
		// and the store-index span both parent onto it, so the assembled
		// trace shows the shard-side fan-out of one frame.
		var isp trace.Span
		traced := p.Trace.Sampled()
		if traced {
			isp = trace.Begin(p.Trace, trace.StageIngest)
			isp.Start = burst.arrived.UnixNano()
			isp.SwitchID = p.SwitchID
			isp.Seq = p.Seq
			isp.Shard = s.cfg.TraceShard
			isp.Events = uint32(p.Events())
			p.Trace.Parent = isp.SpanID
		}

		// Apply before acking: an ack promises the batch is in the Store
		// (and, with a WAL, on disk). Replays of already-stored batches
		// are deduplicated and still acked — the client must stop
		// resending them — but are not logged twice.
		var serial uint64
		var werr error
		s.ingestMu.RLock()
		switch {
		case p.Seq != 0 && s.store.SeenBatch(p.SwitchID, p.Seq):
			s.store.DeliverPayload(&p) // counts the duplicate, changes nothing else
			if s.wal != nil {
				// The first copy's fsync may still be pending; gate this
				// ack on everything logged so far so a replayed ack never
				// promises more durability than the disk has.
				serial = s.wal.LastSerial()
			}
		case s.wal != nil:
			serial, werr = s.wal.Append(payload, state == admitShed)
			if werr == nil {
				if state == admitShed {
					s.admit.shedBatches.Inc()
					s.admit.shedEvent.Add(uint64(p.Events()))
				} else {
					s.store.DeliverPayload(&p)
				}
			}
		default:
			s.store.DeliverPayload(&p)
		}
		s.ingestMu.RUnlock()
		if werr != nil {
			// The log is the reliability boundary: a frame that cannot be
			// made durable must not be acked. Drop the connection; and if
			// the log is poisoned (not just an oversized payload), flip
			// the whole server to durability-failed so the client fails
			// over instead of retrying into a dead disk.
			s.walAppendErrors.Inc()
			if perr := s.wal.Err(); perr != nil {
				s.failDurability(perr)
			}
			break
		}
		s.frames.Inc()
		if traced {
			trace.Finish(&isp)
		}
		switch {
		case p.Seq == 0:
			s.ingestLag.ObserveTrace(float64(time.Since(burst.arrived).Microseconds()), p.Trace.TraceID)
		case traced:
			// A sampled frame is acked on its own, behind the burst so far:
			// its wal-fsync span needs its own serial and its own wait. The
			// append is already logged; the fsync wait that gates the ack
			// continues in the acker, so that span starts where the ingest
			// span ends.
			hand()
			burst.add(&p, serial)
			if serial != 0 {
				burst.walStart = isp.End
			}
			burst.sw, burst.events = p.SwitchID, uint32(p.Events())
			hand()
		default:
			burst.add(&p, serial)
			if burst.frames == maxBurst {
				hand()
			}
		}
	}
	hand()
	close(acks)
	<-ackerDone
}

// ackLoop writes one cumulative ack per ackPoint for one connection, each
// gated on the WAL durability of every frame it stands for and throttled
// by the admission ladder's slow rung. On a write failure it closes the
// connection (waking the read loop) and drains the channel so the read
// loop can exit.
func (s *Server) ackLoop(conn net.Conn, acks <-chan ackPoint, done chan<- struct{}) {
	defer close(done)
	// fail closes the connection (waking the read loop) and drains the
	// channel — releasing any barrier the read loop is parked on — until
	// the read loop notices and closes it.
	fail := func() {
		conn.Close()
		for ap := range acks {
			if ap.barrier != nil {
				close(ap.barrier)
			}
		}
	}
	for ap := range acks {
		if ap.barrier != nil {
			close(ap.barrier) // every earlier ack is already on the wire
			continue
		}
		if ap.serial != 0 {
			if err := s.wal.WaitDurable(ap.serial); err != nil {
				// ErrClosed is a normal shutdown; anything else is the
				// poison error and every waiter just learned the disk
				// broke its promise — declare durability failure.
				if !errors.Is(err, wal.ErrClosed) {
					s.failDurability(err)
				}
				fail()
				return
			}
			if ap.walStart != 0 {
				sp := trace.Begin(ap.tr, trace.StageWALFsync)
				sp.Start = ap.walStart
				sp.SwitchID = ap.sw
				sp.Shard = s.cfg.TraceShard
				sp.Seq = ap.seq
				sp.Events = ap.events
				sp.Detail = uint32(ap.serial)
				trace.Finish(&sp)
			}
		}
		if s.admit.current() == admitSlow {
			s.admit.ackDelays.Inc()
			time.Sleep(ackSlowdown)
		}
		conn.SetWriteDeadline(time.Now().Add(ackTimeout))
		if err := writeAck(conn, ap.seq); err != nil {
			s.ackWriteErrors.Inc()
			fail()
			return
		}
		s.acks.Inc()
		s.ingestLag.ObserveN(float64(time.Since(ap.arrived).Microseconds()), ap.frames, ap.tr.TraceID)
	}
}

// TraceExemplars returns the ingest-lag histogram's per-bucket latency
// exemplars: the last trace ID to land in each bucket. The fleet plane
// merges these across shards.
func (s *Server) TraceExemplars() []obs.Exemplar {
	return s.ingestLag.Snapshot().Exemplars
}

// Checkpoint snapshots the store and truncates the WAL behind it. The
// ingest barrier is held exclusively across the segment cut and the
// store capture — the only ordering under which "in a segment below the
// cut" implies "captured by the snapshot" — and released before the
// bytes are written to disk, so ingestion stalls only for the capture,
// not the I/O.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return errors.New("collector: no WAL attached")
	}
	s.ingestMu.Lock()
	cut, err := s.wal.CutSegment()
	var img []byte
	if err == nil {
		img = s.store.EncodeSnapshot()
	}
	s.ingestMu.Unlock()
	if err != nil {
		return err
	}
	return s.wal.InstallSnapshot(cut, img)
}

// WithIngestBarrier runs fn while the ingest barrier is held exclusively:
// no frame can be mid-append or mid-apply, so fn observes (and may
// extend) a consistent WAL/store boundary. The fabric's rebalance mark —
// "every event stored so far belongs to the old owner" — is taken under
// this barrier. fn must be brief; ingestion stalls for its duration.
func (s *Server) WithIngestBarrier(fn func() error) error {
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	return fn()
}

// Drain gracefully quiesces ingestion for shutdown: it stops accepting,
// gives every live connection up to grace to finish its current frame,
// then shuts their read sides, and waits for all pending acks —
// durability waits included — to reach the wire. After Drain returns, a
// Checkpoint captures everything that was ever acked.
func (s *Server) Drain(grace time.Duration) {
	s.svc.Stop()
	// A read deadline would not hold: serve re-arms ReadTimeout before
	// every read that can block, so a client still sending, or one whose
	// last ack was in flight, kept Drain waiting out ReadTimeout.
	t := time.AfterFunc(grace, func() { s.svc.each(closeRead) })
	defer t.Stop()
	s.svc.Wait()
}

// closeRead ends a connection's reads and leaves its writes open, so the
// acks still owed reach the client. A conn without a read side of its
// own to shut (a fault-injection wrapper) gets a past read deadline.
func closeRead(c net.Conn) {
	if tc, ok := c.(interface{ CloseRead() error }); ok {
		tc.CloseRead()
		return
	}
	c.SetReadDeadline(time.Now())
}

// Close stops accepting, closes every connection and waits for their
// goroutines. After Drain, which closed the listener already, it reports
// no error for it.
func (s *Server) Close() error { return s.svc.Close() }
