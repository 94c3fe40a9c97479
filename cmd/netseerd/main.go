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
// A shard is the standalone collector (one collector.StartNode, whose
// recovery report the daemon prints the same way in both modes) plus the
// admin surface rebalances run through; the coordinator owns the
// epoch-stamped slot ring and drives membership changes
// (join/leave/retire) with a durable two-phase record so its own crash
// mid-rebalance resolves cleanly. See DESIGN.md §11.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/collector/wal"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

// The flags, read by every mode.
var (
	ingestAddr    = flag.String("ingest", "127.0.0.1:9750", "event ingestion listen address")
	queryAddr     = flag.String("query", "127.0.0.1:9751", "query listen address")
	metricsAddr   = flag.String("metrics", "127.0.0.1:9752", "observability listen address (/metrics, /healthz, /debug/pprof); empty disables")
	logStats      = flag.Duration("log-stats", 0, "log a telemetry snapshot at this interval (0 disables)")
	maxConns      = flag.Int("max-conns", 128, "max concurrent ingest connections")
	readTimeout   = flag.Duration("read-timeout", 2*time.Minute, "per-frame ingest read deadline")
	dataDir       = flag.String("data-dir", "", "write-ahead log directory; empty runs in-memory (a crash loses the store)")
	memBudget     = flag.Int64("mem-budget", 0, "store memory budget in bytes for admission control (0 disables)")
	snapshotEvery = flag.Duration("snapshot-interval", time.Minute, "checkpoint (snapshot + log truncate) interval with -data-dir")
	scrubEvery    = flag.Duration("scrub-interval", 10*time.Minute, "WAL bit-rot scrub interval with -data-dir (0 disables); corrupt sealed segments are quarantined")
	segmentBytes  = flag.Int64("wal-segment-bytes", 8<<20, "write-ahead log segment rotation size")
	drainGrace    = flag.Duration("drain-grace", 3*time.Second, "graceful drain budget on SIGTERM/SIGINT")
	mode          = flag.String("mode", "standalone", "standalone | shard | coordinator")
	shardID       = flag.Uint("shard-id", 0, "this shard's ID in the fabric (shard mode)")
	adminAddr     = flag.String("admin", "127.0.0.1:9753", "fabric admin listen address (shard mode)")
	coordAddr     = flag.String("coordinator", "", "coordinator address to join on startup (shard mode; empty: wait to be joined)")
	fabricListen  = flag.String("fabric-listen", "127.0.0.1:9760", "coordinator listen address (coordinator mode)")
	fabricState   = flag.String("fabric-state", "", "coordinator durable state file (coordinator mode)")
	joinTimeout   = flag.Duration("join-timeout", 2*time.Minute, "bound on the whole join rebalance (shard mode with -coordinator)")
	traceSample   = flag.Uint64("trace-sample", trace.DefaultSampleEvery, "batch-trace head-sampling modulus: 1 traces every batch, n one in n, 0 disables sampling (exemplars stay on)")
)

func main() {
	flag.Parse()

	trace.SetSampleEvery(*traceSample)

	// The registry renders every declared family, so the pipeline stages
	// this daemon does not run show as zero samples.
	reg := obs.NewRegistry()
	obs.RegisterRuntime(reg)
	trace.RegisterMetrics(reg, trace.Default)

	life := lifecycle{
		metricsAddr:     *metricsAddr,
		durable:         *dataDir != "",
		checkpointEvery: *snapshotEvery,
		scrubEvery:      *scrubEvery,
		statsEvery:      *logStats,
		drainGrace:      *drainGrace,
		logf:            log.Printf,
	}
	switch *mode {
	case "standalone":
	case "shard":
		runShard(reg, life)
		return
	case "coordinator":
		runCoordinator(reg, life)
		return
	default:
		log.Fatalf("netseerd: unknown -mode %q (standalone | shard | coordinator)", *mode)
	}

	// With a data dir, recovery runs before the first frame is accepted:
	// newest snapshot, then the log tail, through the same decoder the
	// wire uses.
	node, err := collector.StartNode(*dataDir, *ingestAddr, *queryAddr, serverConfig(), walOptions(), 0)
	if err != nil {
		log.Fatalf("netseerd: starting the collector: %v", err)
	}
	defer node.Close()
	if *dataDir != "" {
		logRecovery(log.Printf, *dataDir, node)
	} else if *memBudget > 0 {
		log.Printf("netseerd: -mem-budget without -data-dir: shedding disabled, overload only slows acks")
	}
	node.RegisterMetrics(reg)
	log.Printf("netseerd: ingesting on %s, queries on %s", node.Addr(), node.QueryAddr())

	if err := life.run(node, reg, shutdownSignal()); err != nil {
		log.Fatalf("netseerd: %v", err)
	}
	if w := node.WAL(); w != nil {
		ws := w.Stats()
		log.Printf("netseerd: wal: %d appends, %d fsyncs, %d snapshots, %d live segments (%d bytes)",
			ws.Appends, ws.Fsyncs, ws.Snapshots, ws.Segments, ws.SizeBytes)
	}
	store, st := node.Store(), node.Stats()
	log.Printf("netseerd: %d events stored (%d replayed batches deduplicated), shutting down", store.Len(), store.DupBatches())
	log.Printf("netseerd: ingest health: conns=%d rejected=%d accept-retries=%d frames=%d frame-errors=%d acks=%d ack-errors=%d",
		st.ConnsAccepted, st.ConnsRejected, st.AcceptRetries, st.Frames, st.FrameErrors, st.Acks, st.AckWriteErrors)
}

// serverConfig and walOptions are the ingest and log tuning the flags
// set, for a standalone collector and a shard alike.
func serverConfig() collector.ServerConfig {
	return collector.ServerConfig{MaxConns: *maxConns, ReadTimeout: *readTimeout, MemoryBudget: *memBudget}
}

func walOptions() wal.Options { return wal.Options{SegmentBytes: *segmentBytes} }

// logRecovery prints what a durable start recovered from its data dir:
// the events, log records and segments, a truncated tail, and every
// replay gap — the one report of a standalone collector and a shard.
func logRecovery(logf func(format string, args ...any), dir string, node *collector.Node) {
	rst := node.Replay()
	logf("netseerd: recovered %d events from %s (%d log records across %d segments)",
		node.Store().Len(), dir, rst.Records, rst.Segments)
	if rst.Truncated {
		logf("netseerd: log tail truncated at %s (unacked suffix discarded; exporters retransmit)", rst.TruncatedAt)
	}
	for _, gap := range rst.Gaps {
		logf("netseerd: WARNING: replay gap: %s (acked events in the gap are lost; see DESIGN.md §15)", gap)
	}
}

// shutdownSignal returns a channel that receives SIGINT and SIGTERM from
// now on.
func shutdownSignal() <-chan os.Signal {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	return sig
}

// runShard is netseerd -mode shard: one fabric member, run by the same
// lifecycle as a standalone collector. With -coordinator it joins the
// ring on startup; without, it waits for the coordinator to be pointed
// at it.
func runShard(reg *obs.Registry, life lifecycle) {
	if *dataDir == "" {
		log.Fatal("netseerd: -mode shard requires -data-dir (the fabric's handoff protocol is WAL-backed)")
	}
	node, err := fabric.StartShard(fabric.ShardOptions{
		ID:         uint32(*shardID),
		Dir:        *dataDir,
		IngestAddr: *ingestAddr,
		QueryAddr:  *queryAddr,
		AdminAddr:  *adminAddr,
		Server:     serverConfig(),
		WAL:        walOptions(),
	})
	if err != nil {
		log.Fatalf("netseerd: shard: %v", err)
	}
	defer node.Close()
	logRecovery(log.Printf, *dataDir, node.Node)
	node.RegisterMetrics(reg)
	log.Printf("netseerd: shard %d ingesting on %s, queries on %s, admin on %s (epoch %d)",
		node.ID, node.IngestAddr(), node.QueryAddr(), node.AdminAddr(), node.Epoch())

	if *coordAddr != "" {
		// The join is a rebalance onto this node, served through its
		// admin listener while the lifecycle already runs.
		go func() {
			cfg, err := fabric.RequestJoin(*coordAddr, node.Info(), *joinTimeout)
			if err != nil {
				log.Fatalf("netseerd: joining the fabric via %s: %v", *coordAddr, err)
			}
			log.Printf("netseerd: joined the fabric at epoch %d (%d shards)", cfg.Epoch, len(cfg.Shards))
		}()
	}
	if err := life.run(node, reg, shutdownSignal()); err != nil {
		log.Fatalf("netseerd: %v", err)
	}
	log.Printf("netseerd: shard %d shutting down (%d events stored, %d transfers open)",
		node.ID, node.Store().Len(), len(node.OpenTransfers()))
}

// runCoordinator is netseerd -mode coordinator: membership, epochs, and
// rebalance orchestration — no event data flows through this process.
func runCoordinator(reg *obs.Registry, life lifecycle) {
	if *fabricState == "" {
		log.Fatal("netseerd: -mode coordinator requires -fabric-state (the durable two-phase rebalance record)")
	}
	coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath:  *fabricState,
		ListenAddr: *fabricListen,
	})
	if err != nil {
		log.Fatalf("netseerd: coordinator: %v", err)
	}
	defer coord.Close()
	coord.RegisterMetrics(reg)
	cfg := coord.Config()
	log.Printf("netseerd: coordinator on %s (epoch %d, %d shards)", coord.Addr(), cfg.Epoch, len(cfg.Shards))
	if !coord.Resolved() {
		log.Printf("netseerd: resolving a rebalance left pending by the previous run")
	}

	life.durable = false // no event data: the metrics server, /fleet added, until a signal
	if err := life.run(nil, reg, shutdownSignal(),
		obs.Page{Pattern: "/fleet", Handler: fabric.FleetHandler(coord, 5*time.Second)}); err != nil {
		log.Fatalf("netseerd: %v", err)
	}
	cfg = coord.Config()
	log.Printf("netseerd: coordinator shutting down at epoch %d (%d shards, pending=%v)",
		cfg.Epoch, len(cfg.Shards), !coord.Resolved())
}
