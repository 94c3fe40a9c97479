GO ?= go

.PHONY: all check vet build test race cover fuzz-smoke nightly-fuzz fmt-check clean

# check is the CI gate: vet, build everything, and run the full suite
# under the race detector. The suite is the whole gate — the oracle's
# scenario matrix, the crash/disk-fault/membership chaos tests, the
# tracing and self-telemetry end-to-end tests are ordinary tests of their
# packages; narrow a run with `go test -race -run <regex> <package>`.
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

# cover runs the suite once with every package instrumented and holds each
# row of scripts/covergate/floors.txt — the only place a floor is written
# — to its floor.
cover:
	$(GO) test -count=1 -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) run ./scripts/covergate -profile cover.out -floors scripts/covergate/floors.txt

# fuzz-smoke and nightly-fuzz run the same list of fuzz targets, every one
# the repo has, each from its f.Add seeds and testdata/fuzz files: 10 s a
# target on every PR, 10 min a target nightly. The smoke minimizes no
# input: go test spends up to 60 s shrinking each input that finds new
# coverage, and a worker doing so fuzzes nothing, so 10 s would go on
# shrinking the first few finds.
fuzz-smoke nightly-fuzz:
	@set -e; for t in \
		internal/collector:FuzzReadFrame \
		internal/collector:FuzzLoadSnapshot \
		internal/collector:FuzzRecoverStore \
		internal/collector:FuzzSeenSet \
		internal/collector/fabric:FuzzShardLog \
		internal/collector/wal:FuzzWALRecord \
		internal/collector/wal:FuzzWALReplay \
		internal/collector/wal:FuzzRecoverSnapshot \
		internal/sketch:FuzzSketch \
		internal/sim:FuzzScheduler \
		internal/batcher:FuzzBatcherModel \
		internal/oracle:FuzzPipeline; do \
		echo "== $${t#*:} ($${t%:*})"; \
		$(GO) test -run '^$$' -fuzz "^$${t#*:}\$$" \
			$(if $(filter nightly-fuzz,$@),-fuzztime 10m,-fuzztime 10s -fuzzminimizetime 0) ./$${t%:*}/; \
	done

# fmt-check fails if any file needs gofmt, or if DESIGN.md outgrows
# 50 000 B: a design note past that is not read whole.
fmt-check:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	@size=$$(wc -c < DESIGN.md); if [ $$size -gt 50000 ]; then \
		echo "DESIGN.md is $$size B, over its 50 000 B cap"; exit 1; fi

clean:
	$(GO) clean ./...
