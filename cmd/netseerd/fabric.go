// Fabric modes of netseerd: -mode shard runs one member of the sharded
// collector fabric (a durable collector plus the admin surface the
// coordinator drives rebalances through), -mode coordinator runs the
// thin membership coordinator that owns the epoch-stamped slot ring.
package main

import (
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

// shardFlags carries the flag values the fabric modes consume.
type shardFlags struct {
	ingestAddr, queryAddr, metricsAddr string
	adminAddr, coordAddr               string
	fabricListen, fabricState          string
	dataDir                            string
	shardID                            uint
	maxConns                           int
	readTimeout                        time.Duration
	memBudget                          int64
	segmentBytes                       int64
	snapshotEvery                      time.Duration
	scrubEvery                         time.Duration
	joinTimeout                        time.Duration
	drainGrace                         time.Duration
}

// runShard is netseerd -mode shard: one fabric member. With -coordinator
// it joins the ring on startup; without, it waits for the coordinator to
// be pointed at it.
func runShard(f shardFlags, reg *obs.Registry) {
	if f.dataDir == "" {
		log.Fatal("netseerd: -mode shard requires -data-dir (the fabric's handoff protocol is WAL-backed)")
	}
	node, err := fabric.StartShard(fabric.ShardOptions{
		ID:         uint32(f.shardID),
		Dir:        f.dataDir,
		IngestAddr: f.ingestAddr,
		QueryAddr:  f.queryAddr,
		AdminAddr:  f.adminAddr,
		Server: collector.ServerConfig{
			MaxConns:     f.maxConns,
			ReadTimeout:  f.readTimeout,
			MemoryBudget: f.memBudget,
		},
		WAL:      wal.Options{SegmentBytes: f.segmentBytes},
		Registry: reg,
	})
	if err != nil {
		log.Fatalf("netseerd: shard: %v", err)
	}
	defer node.Close()
	log.Printf("netseerd: shard %d ingesting on %s, queries on %s, admin on %s (epoch %d)",
		node.ID, node.IngestAddr(), node.QueryAddr(), node.AdminAddr(), node.Epoch())

	if f.metricsAddr != "" {
		osrv, err := obs.ServeHTTP(reg, f.metricsAddr,
			obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)})
		if err != nil {
			log.Fatalf("netseerd: metrics listener: %v", err)
		}
		defer osrv.Close()
		// A poisoned WAL flips this shard's /healthz to 503; the
		// coordinator's /fleet plane picks the same state up from the
		// admin status health payload.
		osrv.SetHealth(node.Healthz)
		log.Printf("netseerd: metrics on http://%s/metrics, traces on /traces", osrv.Addr())
	}

	if f.coordAddr != "" {
		cfg, err := fabric.RequestJoin(f.coordAddr, node.Info(), f.joinTimeout)
		if err != nil {
			log.Fatalf("netseerd: joining the fabric via %s: %v", f.coordAddr, err)
		}
		log.Printf("netseerd: joined the fabric at epoch %d (%d shards)", cfg.Epoch, len(cfg.Shards))
	}

	// Checkpoints are refused while a rebalance transfer is open on this
	// node; the next tick retries after the fence or release closes it.
	done := make(chan struct{})
	if f.snapshotEvery > 0 {
		go func() {
			t := time.NewTicker(f.snapshotEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					if err := node.Checkpoint(); err != nil {
						log.Printf("netseerd: checkpoint: %v", err)
					}
				}
			}
		}()
	}
	if f.scrubEvery > 0 {
		go func() {
			t := time.NewTicker(f.scrubEvery)
			defer t.Stop()
			for {
				select {
				case <-done:
					return
				case <-t.C:
					rep, err := node.ScrubWAL()
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
	close(done)
	// Graceful shutdown as in standalone mode: every accepted frame gets
	// its durable ack, then a checkpoint spares the next start the log
	// replay. An open transfer refuses the checkpoint; its records stay
	// in the log and the next start replays them.
	log.Printf("netseerd: draining ingest (up to %s)", f.drainGrace)
	node.Drain(f.drainGrace)
	if err := node.Checkpoint(); err != nil {
		log.Printf("netseerd: final checkpoint: %v", err)
	}
	log.Printf("netseerd: shard %d shutting down (%d events stored, %d transfers open)",
		node.ID, node.Store().Len(), len(node.OpenTransfers()))
}

// runCoordinator is netseerd -mode coordinator: membership, epochs, and
// rebalance orchestration — no event data flows through this process.
func runCoordinator(f shardFlags, reg *obs.Registry) {
	if f.fabricState == "" {
		log.Fatal("netseerd: -mode coordinator requires -fabric-state (the durable two-phase rebalance record)")
	}
	coord, err := fabric.StartCoordinator(fabric.CoordinatorOptions{
		StatePath:  f.fabricState,
		ListenAddr: f.fabricListen,
		Registry:   reg,
	})
	if err != nil {
		log.Fatalf("netseerd: coordinator: %v", err)
	}
	defer coord.Close()
	cfg := coord.Config()
	log.Printf("netseerd: coordinator on %s (epoch %d, %d shards)", coord.Addr(), cfg.Epoch, len(cfg.Shards))
	if !coord.Resolved() {
		log.Printf("netseerd: resolving a rebalance left pending by the previous run")
	}

	if f.metricsAddr != "" {
		osrv, err := obs.ServeHTTP(reg, f.metricsAddr,
			obs.Page{Pattern: "/traces", Handler: trace.Handler(trace.Default)},
			obs.Page{Pattern: "/fleet", Handler: fabric.FleetHandler(coord, 5*time.Second)})
		if err != nil {
			log.Fatalf("netseerd: metrics listener: %v", err)
		}
		defer osrv.Close()
		log.Printf("netseerd: metrics on http://%s/metrics, fleet health on /fleet", osrv.Addr())
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	cfg = coord.Config()
	log.Printf("netseerd: coordinator shutting down at epoch %d (%d shards, pending=%v)",
		cfg.Epoch, len(cfg.Shards), !coord.Resolved())
}
