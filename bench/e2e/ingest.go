package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs"
)

// ingestWindow is how many batches one operation delivers before it
// waits for every ack: the client's default in-flight window.
const ingestWindow = 256

// ingestWorkload is the store's write use on the production path: client
// framing, loopback TCP, decode, dedup, group-commit fsync, three index
// appends, ack. No simulator code runs.
type ingestWorkload struct {
	batches []*fevent.Batch // the round's input; released when the round has sent it

	dir    string
	wal    *wal.WAL
	store  *collector.Store
	server *collector.Server
	client *collector.Client
	reg    *obs.Registry
	sent   int // events handed to the client this round

	tr tracedIngest
}

type tracedIngest struct {
	ackP50, ackP99, lagP50 []float64
	groupCommit, walBytes  []float64
	retransmits, dropped   float64
}

func (w *ingestWorkload) name() string    { return "ingest_wal" }
func (w *ingestWorkload) unit() string    { return "events acked durable" }
func (w *ingestWorkload) op() string      { return "Deliver of 256 batches, then Flush" }
func (w *ingestWorkload) baseRounds() int { return 16 }

func (w *ingestWorkload) prepare(*env) error { return nil }

// newRound regenerates the inputs from the seed and builds a fresh
// collector on an empty log directory.
func (w *ingestWorkload) newRound(e *env, r *round) error {
	w.batches = genBatches(e.cfg.seed, e.sc.ingestEvents, e.sc.flows)
	w.dir = filepath.Join(e.cfg.walDir, fmt.Sprintf("ingest-%d", r.index))
	if err := os.RemoveAll(w.dir); err != nil {
		return err
	}
	var err error
	if w.wal, err = wal.Open(w.dir, wal.Options{}); err != nil {
		return err
	}
	if _, err = w.wal.Replay(func([]byte) error { return nil }); err != nil {
		return err
	}
	w.store = collector.NewStore()
	if w.server, err = collector.NewServerConfig(w.store, "127.0.0.1:0", collector.ServerConfig{WAL: w.wal}); err != nil {
		return err
	}
	w.reg = obs.NewRegistry()
	w.server.RegisterMetrics(w.reg)
	w.client = collector.NewClientConfig(w.server.Addr(), collector.ClientConfig{FlushTimeout: 60 * time.Second})
	return nil
}

func (w *ingestWorkload) run(e *env, r *round) error {
	w.sent = 0
	withhold := -1
	if e.cfg.fault.withholdBatch {
		withhold = len(w.batches) / 2
	}
	for lo := 0; lo < len(w.batches); lo += ingestWindow {
		hi := lo + ingestWindow
		if hi > len(w.batches) {
			hi = len(w.batches)
		}
		sp := e.tr.begin("ingest.window", r.span, r.index)
		start := time.Now()
		for i := lo; i < hi; i++ {
			w.sent += len(w.batches[i].Events)
			if i != withhold {
				w.client.Deliver(w.batches[i])
			}
		}
		err := w.client.Flush()
		r.opsMs = append(r.opsMs, float64(time.Since(start))/1e6)
		e.tr.end(sp)
		e.led.op(err)
		if err != nil {
			return err
		}
	}
	r.units = int64(w.sent)
	// live_heap_mb is read after this round with w still reachable: it
	// must weigh the store, WAL, server and client, not the benchmark's
	// own input.
	w.batches = nil
	return nil
}

func (w *ingestWorkload) check(e *env, r *round) {
	cs, ss := w.client.Stats(), w.server.Stats()
	e.led.check(w.store.Len() == w.sent, "ingest_wal round %d: store holds %d events, %d were sent", r.index, w.store.Len(), w.sent)
	e.led.check(cs.DroppedBatches == 0 && cs.Retransmits == 0,
		"ingest_wal round %d: client dropped %d and retransmitted %d batches", r.index, cs.DroppedBatches, cs.Retransmits)
	e.led.check(ss.FrameErrors == 0, "ingest_wal round %d: %d server frame errors", r.index, ss.FrameErrors)
	if !r.traced {
		return
	}
	t := &w.tr
	t.ackP50 = append(t.ackP50, cs.AckLatencyUs.Quantile(0.50)/1e3)
	t.ackP99 = append(t.ackP99, cs.AckLatencyUs.Quantile(0.99)/1e3)
	t.retransmits += float64(cs.Retransmits)
	t.dropped += float64(cs.DroppedBatches)
	ws := w.wal.Stats()
	t.groupCommit = append(t.groupCommit, float64(ws.Appends)/float64(ws.Fsyncs))
	t.walBytes = append(t.walBytes, float64(ws.SizeBytes)/float64(w.sent))
	var text bytes.Buffer
	if err := w.reg.WritePrometheus(&text); err == nil {
		t.lagP50 = append(t.lagP50, promQuantile(text.String(), obs.MIngestLag, 0.5)/1e3)
	}
}

func (w *ingestWorkload) endRound(e *env, r *round, last bool) error {
	err := w.client.Close()
	if cerr := w.server.Close(); err == nil {
		err = cerr
	}
	if cerr := w.wal.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	if last {
		// Acked ⇒ durable ⇒ queryable: reopen the log the last round
		// left and recover a store from it alone.
		want := storeDigest(w.store)
		rw, err := wal.Open(w.dir, wal.Options{})
		if err != nil {
			return err
		}
		rec, st, err := collector.RecoverStore(rw)
		if err != nil {
			return err
		}
		got := storeDigest(rec)
		e.led.check(got == want && rec.Len() == w.sent && !st.Truncated && len(st.Gaps) == 0,
			"ingest_wal: recovered %d events digest %016x (truncated=%v gaps=%d), live store %d events digest %016x",
			rec.Len(), got, st.Truncated, len(st.Gaps), w.sent, want)
		e.logf("           recovered %d events from the WAL, digest %016x (live %016x)", rec.Len(), got, want)
		if err := rw.Close(); err != nil {
			return err
		}
	}
	w.wal, w.store, w.server, w.client, w.reg = nil, nil, nil, nil, nil
	return os.RemoveAll(w.dir)
}

func (w *ingestWorkload) finish(*env) error { return nil }

func (w *ingestWorkload) layers(e *env, u untraced, lv layerValues) error {
	t := &w.tr
	lv["collector.client.ack_ms_p50"] = median(t.ackP50)
	lv["collector.client.ack_ms_p99"] = median(t.ackP99)
	lv["collector.client.retransmits"] = t.retransmits
	lv["collector.client.dropped_batches"] = t.dropped
	lv["collector.wal.group_commit_factor"] = median(t.groupCommit)
	lv["collector.wal.bytes_per_event"] = median(t.walBytes)
	lv["collector.server.ingest_lag_ms_p50"] = median(t.lagP50)

	batches := genBatches(e.cfg.seed, e.sc.ingestEvents, e.sc.flows)
	c, err := replayCollector(e, batches, filepath.Join(e.cfg.walDir, "ingest-replay"))
	if err != nil {
		return err
	}
	c.fill(lv)
	perEvent := u.roundWallS * 1e9 / u.units
	attributed := c.decodeNs + c.seenNs/c.eventsPerBatch + c.walAppendNs + c.deliverNs
	lv["collector.server.residual_ns_per_event"] = perEvent - attributed
	lv["trace.coverage"] = (attributed + c.encodeNs) / perEvent
	return nil
}

// collectorCosts are the single-threaded replay costs of the collector's
// layers over one set of batches, all per event unless named otherwise.
type collectorCosts struct {
	encodeNs, decodeNs, frameBytes   float64
	seenNs                           float64 // per batch
	deliverNs, heapBytes, estBytes   float64
	walAppendNs, walReplayNs, fsyncP float64
	eventsPerBatch                   float64
}

func (c collectorCosts) fill(lv layerValues) {
	lv["collector.frame.encode_ns_per_event"] = c.encodeNs
	lv["collector.frame.decode_ns_per_event"] = c.decodeNs
	lv["collector.frame.bytes_per_event"] = c.frameBytes
	lv["collector.store.seen_ns_per_batch"] = c.seenNs
	lv["collector.store.deliver_ns_per_event"] = c.deliverNs
	lv["collector.store.heap_bytes_per_event"] = c.heapBytes
	lv["collector.store.est_bytes_per_event"] = c.estBytes
	lv["collector.wal.append_ns_per_event"] = c.walAppendNs
	lv["collector.wal.fsync_ms_p50"] = c.fsyncP
	lv["collector.wal.replay_ns_per_event"] = c.walReplayNs
}

// replayCollector pushes batches, one layer at a time and on one
// goroutine, through the frame codec, a fresh store and a fresh WAL in
// dir.
func replayCollector(e *env, batches []*fevent.Batch, dir string) (collectorCosts, error) {
	var c collectorCosts
	events := float64(countEvents(batches))
	c.eventsPerBatch = events / float64(len(batches))
	for i, b := range batches {
		b.Seq = uint64(i + 1)
	}

	// Frame: encode every batch into one buffer, decode them back.
	var wire bytes.Buffer
	d, err := e.tr.timed("replay.frame.encode", -1, -1, func() error {
		for _, b := range batches {
			if err := collector.WriteFrame(&wire, b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	c.encodeNs = float64(d) / events
	c.frameBytes = float64(wire.Len()) / events
	payloads := make([][]byte, 0, len(batches))
	for rest := wire.Bytes(); len(rest) > 0; {
		n := frameHeaderLen + int(uint32(rest[0])<<24|uint32(rest[1])<<16|uint32(rest[2])<<8|uint32(rest[3]))
		payloads = append(payloads, rest[frameHeaderLen:n])
		rest = rest[n:]
	}
	rd := bytes.NewReader(wire.Bytes())
	d, err = e.tr.timed("replay.frame.decode", -1, -1, func() error {
		var b fevent.Batch
		for range batches {
			if err := collector.ReadFrame(rd, &b); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return c, err
	}
	c.decodeNs = float64(d) / events

	// Store: the server's two calls per frame, SeenBatch then Deliver,
	// into a fresh store; heap growth is what the events really cost.
	heapBefore := liveHeapMB()
	st := collector.NewStore()
	var seen, deliver time.Duration
	sp := e.tr.begin("replay.store", -1, -1)
	for _, b := range batches {
		t0 := time.Now()
		dup := st.SeenBatch(b.SwitchID, b.Seq)
		t1 := time.Now()
		if !dup {
			st.Deliver(b)
		}
		seen += t1.Sub(t0)
		deliver += time.Since(t1)
	}
	e.tr.end(sp)
	c.seenNs = float64(seen) / float64(len(batches))
	c.deliverNs = float64(deliver) / events
	c.heapBytes = (liveHeapMB() - heapBefore) * (1 << 20) / events
	runtime.KeepAlive(batches) // in both readings, or their release counts against the store
	c.estBytes = float64(st.MemoryBytes()) / float64(st.Len())
	st = nil

	// WAL: buffered appends closed by one Sync, single durable appends
	// for the bare fsync, then a replay that only reads.
	if err := os.RemoveAll(dir); err != nil {
		return c, err
	}
	defer os.RemoveAll(dir)
	lg, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return c, err
	}
	d, err = e.tr.timed("replay.wal.append", -1, -1, func() error {
		for _, p := range payloads {
			if _, err := lg.Append(p, false); err != nil {
				return err
			}
		}
		return lg.Sync()
	})
	if err != nil {
		lg.Close()
		return c, err
	}
	c.walAppendNs = float64(d) / events
	var fsyncs []float64
	for i := 0; i < 40 && i < len(payloads); i++ {
		t0 := time.Now()
		if err := lg.AppendDurable(payloads[i], false); err != nil {
			lg.Close()
			return c, err
		}
		fsyncs = append(fsyncs, float64(time.Since(t0))/1e6)
	}
	c.fsyncP = median(fsyncs)
	if err := lg.Close(); err != nil {
		return c, err
	}
	lg, err = wal.Open(dir, wal.Options{})
	if err != nil {
		return c, err
	}
	var rs wal.ReplayStats
	d, err = e.tr.timed("replay.wal.replay", -1, -1, func() error {
		var err error
		rs, err = lg.Replay(func([]byte) error { return nil })
		return err
	})
	if cerr := lg.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return c, err
	}
	c.walReplayNs = float64(d) / events * float64(len(payloads)) / float64(rs.Records)
	return c, nil
}

// promQuantile estimates quantile q of histogram name from Prometheus
// exposition text — the server publishes its ingest-lag histogram only
// through its metrics registry. It returns the upper bound of the bucket
// holding the quantile (the largest finite bound if that is the +Inf
// bucket), 0 if the histogram is absent or empty.
func promQuantile(text, name string, q float64) float64 {
	type bucket struct {
		le    float64
		count float64
	}
	var buckets []bucket
	sc := bufio.NewScanner(strings.NewReader(text))
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, name+"_bucket{") {
			continue
		}
		i := strings.Index(line, `le="`)
		j := strings.Index(line[i+4:], `"`)
		sp := strings.LastIndexByte(line, ' ')
		if i < 0 || j < 0 || sp < 0 {
			continue
		}
		le, err1 := strconv.ParseFloat(line[i+4:i+4+j], 64)
		n, err2 := strconv.ParseFloat(line[sp+1:], 64)
		if err1 == nil && err2 == nil {
			buckets = append(buckets, bucket{le, n})
		}
	}
	if len(buckets) == 0 {
		return 0
	}
	total := buckets[len(buckets)-1].count
	finite := 0.0
	for _, b := range buckets {
		if !math.IsInf(b.le, 0) {
			finite = b.le
		}
		if total > 0 && b.count >= q*total {
			return finite
		}
	}
	return 0
}
