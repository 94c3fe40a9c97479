// Command netseerd is the NetSeer backend collector daemon: it ingests
// event batches from switch CPUs over TCP (length-prefixed frames) and
// answers operator queries on a second port using the line protocol of
// internal/collector.
//
// Usage:
//
//	netseerd [-ingest addr] [-query addr] [-metrics addr] [-data-dir dir]
//
// Query examples (e.g. via `nc` or cmd/fetquery):
//
//	count type=drop
//	query flow=tcp:10.0.0.1:40000:10.1.0.1:80 code=no-route
//	flows
//	stats
//
// With -data-dir the daemon is durable: every ingested batch is written
// to a write-ahead log before it is acknowledged, the store is
// snapshotted (and the log truncated) every -snapshot-interval, and a
// restart replays snapshot + log tail so no acked event is lost to a
// crash. -mem-budget adds overload protection on top: past 70% of the
// budget acks slow down (backpressuring the switch CPU), past 90%
// batches are logged but not indexed until a restart replays them.
//
// The -metrics address serves the daemon's self-telemetry: /metrics
// (Prometheus text exposition), /healthz, and /debug/pprof. The same
// exposition is available over the query port via the "stats" verb.
//
// Beyond the default standalone collector, -mode selects a fabric role:
//
//	netseerd -mode shard -shard-id 1 -data-dir /var/lib/netseer/s1 \
//	         -ingest :9750 -query :9751 -admin :9753 -coordinator host:9760
//	netseerd -mode coordinator -fabric-listen :9760 -fabric-state /var/lib/netseer/ring.json
//
// A shard is a durable collector plus the admin surface rebalances run
// through; the coordinator owns the epoch-stamped slot ring and drives
// membership changes (join/leave/retire) with a durable two-phase record
// so its own crash mid-rebalance resolves cleanly. See DESIGN.md §11.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

func main() {
	ingestAddr := flag.String("ingest", "127.0.0.1:9750", "event ingestion listen address")
	queryAddr := flag.String("query", "127.0.0.1:9751", "query listen address")
	metricsAddr := flag.String("metrics", "127.0.0.1:9752", "observability listen address (/metrics, /healthz, /debug/pprof); empty disables")
	logStats := flag.Duration("log-stats", 0, "log a telemetry snapshot at this interval (0 disables)")
	maxConns := flag.Int("max-conns", 128, "max concurrent ingest connections")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "per-frame ingest read deadline")
	dataDir := flag.String("data-dir", "", "write-ahead log directory; empty runs in-memory (a crash loses the store)")
	memBudget := flag.Int64("mem-budget", 0, "store memory budget in bytes for admission control (0 disables)")
	snapshotEvery := flag.Duration("snapshot-interval", time.Minute, "checkpoint (snapshot + log truncate) interval with -data-dir")
	scrubEvery := flag.Duration("scrub-interval", 10*time.Minute, "WAL bit-rot scrub interval with -data-dir (0 disables); corrupt sealed segments are quarantined")
	segmentBytes := flag.Int64("wal-segment-bytes", 8<<20, "write-ahead log segment rotation size")
	drainGrace := flag.Duration("drain-grace", 3*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	mode := flag.String("mode", "standalone", "standalone | shard | coordinator")
	shardID := flag.Uint("shard-id", 0, "this shard's ID in the fabric (shard mode)")
	adminAddr := flag.String("admin", "127.0.0.1:9753", "fabric admin listen address (shard mode)")
	coordAddr := flag.String("coordinator", "", "coordinator address to join on startup (shard mode; empty: wait to be joined)")
	fabricListen := flag.String("fabric-listen", "127.0.0.1:9760", "coordinator listen address (coordinator mode)")
	fabricState := flag.String("fabric-state", "", "coordinator durable state file (coordinator mode)")
	joinTimeout := flag.Duration("join-timeout", 2*time.Minute, "bound on the whole join rebalance (shard mode with -coordinator)")
	traceSample := flag.Uint64("trace-sample", trace.DefaultSampleEvery, "batch-trace head-sampling modulus: 1 traces every batch, n one in n, 0 disables sampling (exemplars stay on)")
	flag.Parse()

	trace.SetSampleEvery(*traceSample)

	// The registry renders every declared family, so the pipeline stages
	// this daemon does not run show as zero samples.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	trace.RegisterMetrics(reg, trace.Default)

	if *mode != "standalone" {
		f := shardFlags{
			ingestAddr: *ingestAddr, queryAddr: *queryAddr, metricsAddr: *metricsAddr,
			adminAddr: *adminAddr, coordAddr: *coordAddr,
			fabricListen: *fabricListen, fabricState: *fabricState,
			dataDir: *dataDir, shardID: *shardID,
			maxConns: *maxConns, readTimeout: *readTimeout,
			memBudget: *memBudget, segmentBytes: *segmentBytes,
			snapshotEvery: *snapshotEvery, scrubEvery: *scrubEvery,
			joinTimeout: *joinTimeout, drainGrace: *drainGrace,
		}
		switch *mode {
		case "shard":
			runShard(f, reg)
		case "coordinator":
			runCoordinator(f, reg)
		default:
			log.Fatalf("netseerd: unknown -mode %q (standalone | shard | coordinator)", *mode)
		}
		return
	}

	// With a data dir, recovery runs before the first frame is accepted:
	// newest snapshot, then the log tail, through the same decoder the
	// wire uses.
	var store *collector.Store
	var w *wal.WAL
	if *dataDir != "" {
		var err error
		w, err = wal.Open(*dataDir, wal.Options{SegmentBytes: *segmentBytes})
		if err != nil {
			log.Fatalf("write-ahead log: %v", err)
		}
		defer w.Close()
		var rst wal.ReplayStats
		store, rst, err = collector.RecoverStore(w)
		if err != nil {
			log.Fatalf("recovering store from %s: %v", *dataDir, err)
		}
		log.Printf("netseerd: recovered %d events from %s (%d log records across %d segments)",
			store.Len(), *dataDir, rst.Records, rst.Segments)
		if rst.Truncated {
			log.Printf("netseerd: log tail truncated at %s (unacked suffix discarded; exporters retransmit)", rst.TruncatedAt)
		}
		for _, gap := range rst.Gaps {
			log.Printf("netseerd: WARNING: replay gap: %s (acked events in the gap are lost; see DESIGN.md §15)", gap)
		}
	} else {
		store = collector.NewStore()
		if *memBudget > 0 {
			log.Printf("netseerd: -mem-budget without -data-dir: shedding disabled, overload only slows acks")
		}
	}
	store.RegisterMetrics(reg)

	ingest, err := collector.NewServerConfig(store, *ingestAddr, collector.ServerConfig{
		MaxConns:     *maxConns,
		ReadTimeout:  *readTimeout,
		WAL:          w,
		MemoryBudget: *memBudget,
	})
	if err != nil {
		log.Fatalf("ingest listener: %v", err)
	}
	defer ingest.Close()
	ingest.RegisterMetrics(reg)
	query, err := collector.NewQueryServer(store, *queryAddr)
	if err != nil {
		log.Fatalf("query listener: %v", err)
	}
	defer query.Close()
	query.RegisterMetrics(reg)
	log.Printf("netseerd: ingesting on %s, queries on %s", ingest.Addr(), query.Addr())

	if *metricsAddr != "" {
		osrv, err := obs.ServeHTTP(reg, *metricsAddr,
			obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)})
		if err != nil {
			log.Fatalf("metrics listener: %v", err)
		}
		defer osrv.Close()
		// /healthz answers 503 once the WAL poisons itself — orchestrators
		// see a durability-failed collector without parsing /metrics.
		osrv.SetHealth(ingest.Healthz)
		log.Printf("netseerd: metrics on http://%s/metrics, traces on /traces", osrv.Addr())
	}
	if *logStats > 0 {
		stop := obs.StartLogger(reg, *logStats, log.Printf)
		defer stop()
	}

	// Periodic checkpoints bound both restart-replay time and disk usage.
	checkpointDone := make(chan struct{})
	if w != nil && *snapshotEvery > 0 {
		go func() {
			t := time.NewTicker(*snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-checkpointDone:
					return
				case <-t.C:
					if err := ingest.Checkpoint(); err != nil {
						log.Printf("netseerd: checkpoint: %v", err)
					}
				}
			}
		}()
	}
	// Background scrubs catch bit rot in sealed segments and snapshots
	// before a restart trips over it; corrupt files are quarantined so
	// the next replay reports an explicit gap instead of failing.
	if w != nil && *scrubEvery > 0 {
		go func() {
			t := time.NewTicker(*scrubEvery)
			defer t.Stop()
			for {
				select {
				case <-checkpointDone:
					return
				case <-t.C:
					rep, err := ingest.ScrubWAL()
					if err != nil {
						log.Printf("netseerd: scrub: %v", err)
						continue
					}
					for _, q := range rep.Quarantined {
						log.Printf("netseerd: WARNING: scrub quarantined %s (CRC failure; bit rot?)", q)
					}
				}
			}
		}()
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	close(checkpointDone)
	if w != nil {
		// Graceful shutdown: quiesce ingestion (every accepted frame gets
		// its durable ack), then checkpoint so the next start replays a
		// snapshot instead of the whole log.
		log.Printf("netseerd: draining ingest (up to %s)", *drainGrace)
		ingest.Drain(*drainGrace)
		if err := ingest.Checkpoint(); err != nil {
			log.Printf("netseerd: final checkpoint: %v", err)
		}
		ws := w.Stats()
		log.Printf("netseerd: wal: %d appends, %d fsyncs, %d snapshots, %d live segments (%d bytes)",
			ws.Appends, ws.Fsyncs, ws.Snapshots, ws.Segments, ws.SizeBytes)
	}
	st := ingest.Stats()
	log.Printf("netseerd: %d events stored (%d replayed batches deduplicated), shutting down", store.Len(), store.DupBatches())
	log.Printf("netseerd: ingest health: conns=%d rejected=%d accept-retries=%d frames=%d frame-errors=%d acks=%d ack-errors=%d",
		st.ConnsAccepted, st.ConnsRejected, st.AcceptRetries, st.Frames, st.FrameErrors, st.Acks, st.AckWriteErrors)
}
