package experiments

import (
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"netseer/internal/collector"
)

// The parallel experiment engine. Every figure of the evaluation fans out
// over independent, deterministic simulation runs: each RunConfig point
// owns its own seeded sim.Simulator, topology and monitors, so runs share
// no mutable state. parallelMap distributes those points over a bounded
// worker pool and collects results by input index — never by completion
// order — which keeps every table byte-identical to a sequential run
// (asserted by TestParallelMatchesSequential).
//
// Wall-clock measurements are the one exception: Fig. 14(a)/(b) time real
// CPU work, so running them concurrently with other runs would distort
// the numbers they exist to report. Those stay sequential.

// parallelism is the worker-pool width consulted by every figure fan-out.
var parallelism int32 = int32(runtime.NumCPU())

// SetParallelism sets the number of workers used for independent
// experiment points. n <= 0 restores the default, runtime.NumCPU().
// 1 runs every point inline on the calling goroutine.
func SetParallelism(n int) {
	if n <= 0 {
		n = runtime.NumCPU()
	}
	atomic.StoreInt32(&parallelism, int32(n))
}

// Parallelism returns the current worker-pool width.
func Parallelism() int { return int(atomic.LoadInt32(&parallelism)) }

// parallelMap evaluates fn(0..n-1) across min(Parallelism(), n) workers
// and returns the results indexed by input position. With one worker it
// degenerates to a plain ordered loop — no goroutines, exactly the
// sequential semantics.
func parallelMap[T any](n int, fn func(int) T) []T {
	if n <= 0 {
		return nil
	}
	out := make([]T, n)
	workers := Parallelism()
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			out[i] = fn(i)
		}
		return out
	}
	var next int64 = -1
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	return out
}

// CanonicalDigest is the sorted-line event-stream digest over any set of
// stores: every event is rendered with its timestamp, the lines are
// sorted, and the result is FNV-64a hashed, which makes the digest a pure
// function of the event multiset whatever order the stores ingested it
// in. Two runs exported the same events iff their digests are equal.
func CanonicalDigest(stores ...*collector.Store) uint64 {
	var lines []string
	for _, st := range stores {
		for _, e := range st.Query(collector.Filter{}) {
			lines = append(lines, fmt.Sprintf("%s@%d", e.String(), e.Timestamp))
		}
	}
	sort.Strings(lines)
	h := fnv.New64a()
	for _, ln := range lines {
		h.Write([]byte(ln))
		h.Write([]byte{'\n'})
	}
	return h.Sum64()
}
