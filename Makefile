GO ?= go

.PHONY: all check vet build test race fuzz-smoke fmt-check clean \
	oracle oracle-fuzz-smoke oracle-cover obs obs-cover durability wal-fuzz-smoke wal-cover \
	fabric fabric-chaos fabric-cover sim-cover sketch-cover nightly-fuzz \
	trace trace-cover storagefault storagefault-cover

# check is the CI gate: vet, build everything, and run the full suite
# under the race detector (the concurrent collector sender must be
# race-clean).
all: check

check: vet build race

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# fuzz-smoke: ~10s per fuzz target beyond its checked-in corpus, starting
# from the seed corpora under */testdata/fuzz/ (regenerate them with
# `go run ./scripts/genfuzzcorpus`).
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzReadFrame -fuzztime 10s ./internal/collector/
	$(GO) test -run '^$$' -fuzz FuzzSketch -fuzztime 10s ./internal/sketch/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 10s ./internal/collector/wal/
	$(GO) test -run '^$$' -fuzz FuzzScheduler -fuzztime 10s ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzBatcherModel -fuzztime 10s ./internal/batcher/

# sketch-cover fails if statement coverage of internal/sketch — the
# detection family the oracle's sketch claims ride on — drops below 85%.
sketch-cover:
	$(GO) test -count=1 -coverprofile=cover-sketch.out \
		-coverpkg=netseer/internal/sketch ./internal/sketch/
	$(GO) run ./scripts/covergate -profile cover-sketch.out -min 85 netseer/internal/sketch

# oracle runs the correctness-oracle scenario matrix: every scenario must
# satisfy all six invariant checkers, including the sketch differential
# claims and the TCP delivery replay (see internal/oracle and DESIGN.md
# §8/§13).
oracle:
	$(GO) test -count=1 ./internal/oracle/

# oracle-fuzz-smoke: ~10s of whole-pipeline coverage-guided fuzzing from
# the seed corpus under internal/oracle/testdata/fuzz/.
oracle-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzPipeline -fuzztime 10s ./internal/oracle/

# oracle-cover fails if statement coverage of the oracle or the group
# cache drops below 85%.
oracle-cover:
	$(GO) test -count=1 -coverprofile=cover-oracle.out \
		-coverpkg=netseer/internal/oracle,netseer/internal/groupcache \
		./internal/oracle/ ./internal/groupcache/
	$(GO) run ./scripts/covergate -profile cover-oracle.out -min 85 \
		netseer/internal/oracle netseer/internal/groupcache

# obs runs the self-telemetry gate under the race detector: the
# instrument/registry/exposition unit suite, the netseerd-shaped
# end-to-end /metrics scrape with live TCP ingestion, the query-protocol
# stats verb and error-path accounting, and the testbed publish bridge.
obs:
	$(GO) test -race -count=1 ./internal/obs/
	$(GO) test -race -count=1 -run 'TestMetricsEndToEnd|TestQueryStats|TestQueryErrorPaths' ./internal/collector/
	$(GO) test -race -count=1 -run 'TestRegisterObsPublishesPipeline' ./internal/experiments/

# durability runs the crash-safety gate under the race detector: the WAL
# unit suite, the SIGKILL kill-recover chaos loop (acked events survive
# arbitrary collector crashes), multi-endpoint failover without double
# delivery, and the overload ladder (slow acks -> shed-to-log, shed
# events recoverable after restart).
durability:
	$(GO) test -race -count=1 ./internal/collector/wal/
	$(GO) test -race -count=1 -run \
		'TestKillRecoverAckedNeverLost|TestFailoverNoDoubleDeliver|TestShedEventsRecoverableAfterRestart|TestServerSlowWatermarkDelaysAcks|TestAdmission|TestChaos' \
		./internal/collector/

# fabric runs the sharded-collector gate under the race detector: the
# ring/records/handoff unit suites, the coordinator wire protocol, and
# the exactly-once fan-out audits, plus the fault-injection conn suite
# the partition scenarios build on.
fabric:
	$(GO) test -race -count=1 ./internal/collector/fabric/
	$(GO) test -race -count=1 ./internal/faultconn/

# fabric-chaos runs just the membership-churn chaos matrix: shard add
# under load, demote/retire under load, a one-way partition mid-ingest,
# a SIGKILLed shard mid-rebalance, and coordinator restarts in both
# two-phase-record phases. FABRIC_CHAOS narrows the matrix to one
# scenario (e.g. make fabric-chaos FABRIC_CHAOS=TestShardSIGKILLMidRebalance).
FABRIC_CHAOS ?= TestShardAddUnderLoad|TestShardLeaveRetireUnderLoad|TestAsymmetricPartitionDuringIngest|TestShardSIGKILLMidRebalance|TestHandoffSurvivesRestartThenCompletes|TestCoordinatorRestartAbortsStaging
fabric-chaos:
	$(GO) test -race -count=1 -run '$(FABRIC_CHAOS)' ./internal/collector/fabric/

# fabric-cover fails if statement coverage of internal/collector/fabric
# drops below 85%.
fabric-cover:
	$(GO) test -count=1 -coverprofile=cover-fabric.out \
		-coverpkg=netseer/internal/collector/fabric ./internal/collector/fabric/
	$(GO) run ./scripts/covergate -profile cover-fabric.out -min 85 \
		netseer/internal/collector/fabric

# trace runs the distributed-tracing gate under the race detector: the
# span-ring/recorder/context unit suite (including the wraparound and
# reader-snapshot property tests), the v3 traced-frame codec and
# mixed-version WAL replay, the exemplar contract, and the end-to-end
# 3-shard assembly + fleet health plane (a sampled batch's spans pulled
# back together across the fabric, /fleet flipping on a dead member).
trace:
	$(GO) test -race -count=1 ./internal/obs/trace/
	$(GO) test -race -count=1 -run 'TestTracedFrame|TestMixedVersionWALReplay|TestHistogramExemplar' \
		./internal/collector/ ./internal/obs/
	$(GO) test -race -count=1 -run 'TestTraceAssemblyAcrossFabric|TestFleetStatusHealthyAndDeadShard|TestShardSIGKILLMidRebalance' \
		./internal/collector/fabric/

# trace-cover fails if statement coverage of internal/obs/trace drops
# below 85%.
trace-cover:
	$(GO) test -count=1 -coverprofile=cover-trace.out \
		-coverpkg=netseer/internal/obs/trace ./internal/obs/trace/
	$(GO) run ./scripts/covergate -profile cover-trace.out -min 85 netseer/internal/obs/trace

# wal-fuzz-smoke: ~8s per WAL fuzz target (record reader, whole-segment
# replay), starting from the seed corpus under
# internal/collector/wal/testdata/fuzz/ (regenerate it with
# `go run ./scripts/genfuzzcorpus`).
wal-fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzWALRecord -fuzztime 8s ./internal/collector/wal/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 8s ./internal/collector/wal/

# storagefault runs the disk-fault gate under the race detector: the
# deterministic fault-filesystem unit suite, the WAL fail-stop and
# scrub/quarantine suite, and the end-to-end disk-fault chaos matrix
# (ENOSPC mid-ingest, fsync EIO then power cut, torn write under
# rotation, bare power cut, bit rot then scrub, and the fabric's
# dying-destination handoff + /fleet visibility scenarios).
storagefault:
	$(GO) test -race -count=1 ./internal/faultfs/
	$(GO) test -race -count=1 -run 'TestRotateFsyncFailure|TestSyncFsyncFailure|TestWaitDurableWaiters|TestENOSPC|TestPowerCut|TestReplaySkips|TestScrub|TestTornWrite' \
		./internal/collector/wal/
	$(GO) test -race -count=1 -run 'TestStorageFault' \
		./internal/collector/ ./internal/collector/fabric/

# storagefault-cover fails if statement coverage of internal/faultfs or
# internal/collector/wal drops below 85% (the collector chaos matrix
# feeds the profile alongside both unit suites).
storagefault-cover:
	$(GO) test -count=1 -coverprofile=cover-storagefault.out \
		-coverpkg=netseer/internal/faultfs,netseer/internal/collector/wal \
		./internal/faultfs/ ./internal/collector/wal/ ./internal/collector/
	$(GO) run ./scripts/covergate -profile cover-storagefault.out -min 85 \
		netseer/internal/faultfs netseer/internal/collector/wal

# wal-cover fails if statement coverage of internal/collector/wal drops
# below 85% (the collector suite exercises the log end-to-end, so both
# packages' tests feed the profile), that of internal/collector — the
# store, its snapshot codec and the handoff surface — below 84%, that
# of the flow table, of the query line protocol or of the frame codec
# with the payload validator every byte from a socket or a log passes
# through below 90%, or that of the store or its snapshot codec — the
# writers and the readers of the block summaries — below 95%.
wal-cover:
	$(GO) test -count=1 -coverprofile=cover-wal.out \
		-coverpkg=netseer/internal/collector/wal,netseer/internal/collector \
		./internal/collector/wal/ ./internal/collector/
	$(GO) run ./scripts/covergate -profile cover-wal.out -min 85 \
		netseer/internal/collector/wal
	$(GO) run ./scripts/covergate -profile cover-wal.out -min 84 \
		netseer/internal/collector
	$(GO) run ./scripts/covergate -profile cover-wal.out -min 90 \
		netseer/internal/collector/flowtable.go netseer/internal/collector/frame.go \
		netseer/internal/collector/query.go
	$(GO) run ./scripts/covergate -profile cover-wal.out -min 95 \
		netseer/internal/collector/store.go netseer/internal/collector/snapshot.go

# obs-cover fails if statement coverage of internal/obs drops below 85%.
obs-cover:
	$(GO) test -count=1 -coverprofile=cover-obs.out -coverpkg=netseer/internal/obs ./internal/obs/
	$(GO) run ./scripts/covergate -profile cover-obs.out -min 85 netseer/internal/obs

# sim-cover fails if statement coverage of internal/sim — the two-tier
# event queue — drops below 85%.
sim-cover:
	$(GO) test -count=1 -coverprofile=cover-sim.out -coverpkg=netseer/internal/sim ./internal/sim/
	$(GO) run ./scripts/covergate -profile cover-sim.out -min 85 netseer/internal/sim

# nightly-fuzz: the scheduled deep fuzz — 10 minutes of whole-pipeline
# coverage-guided fuzzing from the oracle's seed corpus (the nightly
# workflow runs it; the per-PR smoke stays at 10s).
nightly-fuzz:
	$(GO) test -run '^$$' -fuzz FuzzPipeline -fuzztime 10m ./internal/oracle/
	$(GO) test -run '^$$' -fuzz FuzzSketch -fuzztime 5m ./internal/sketch/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5m ./internal/collector/wal/
	$(GO) test -run '^$$' -fuzz FuzzScheduler -fuzztime 5m ./internal/sim/
	$(GO) test -run '^$$' -fuzz FuzzBatcherModel -fuzztime 5m ./internal/batcher/

# fmt-check fails if any file needs gofmt.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

clean:
	$(GO) clean ./...
