package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one interval at a layer boundary. A layer entered millions of
// times a round (a telemetry hook, the event sink) is one span per round
// carrying the number of calls and the summed time inside them, not one
// span per call.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"` // index into the span list, -1 for a root
	Round  int    `json:"round"`  // -1 outside the rounds
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Calls  int64  `json:"calls,omitempty"`
	BusyNs int64  `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the call sites.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, round int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Parent: parent, Round: round, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.t0))
}

// aggregate records a many-calls layer as one span covering the round.
func (t *tracer) aggregate(name string, parent, round int, calls, busyNs int64) {
	if t == nil {
		return
	}
	id := t.begin(name, parent, round)
	if parent >= 0 {
		t.spans[id].Start = t.spans[parent].Start
		t.spans[id].End = t.spans[parent].End
	} else {
		t.end(id)
	}
	t.spans[id].Calls, t.spans[id].BusyNs = calls, busyNs
}

// timed runs fn inside a span and returns how long it took.
func (t *tracer) timed(name string, parent, round int, fn func() error) (time.Duration, error) {
	id := t.begin(name, parent, round)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	t.end(id)
	return d, err
}

func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return nil
}

// layerValues collects per-layer metric values by name; a metric a
// workload does not exercise stays 0.
type layerValues map[string]float64

// perLayer is the layer ledger, in README order. Layers are the repo's
// packages; this PR may not edit them, so each is measured from outside:
// a wrapper at a public seam, a single-threaded replay of the same inputs
// through the layer's public functions, or an ablation / stats accessor.
var perLayer = []metricDef{
	{Name: "sim.events_per_pkt", Unit: "count", Better: "lower"},
	{Name: "sim.pending_mean", Unit: "count", Better: "lower"},
	{Name: "sim.pending_max", Unit: "count", Better: "lower"},
	{Name: "sim.sched_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sim.sched_share", Unit: "ratio", Better: "lower"},
	{Name: "dataplane.base_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "dataplane.pkts_forwarded", Unit: "count", Better: "higher"},
	{Name: "dataplane.drops", Unit: "count", Better: "lower"},
	{Name: "core.ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.telemetry_ns_per_pkt", Unit: "ns", Better: "lower"},
	{Name: "core.event_pkt_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.dedup_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.exported_events", Unit: "count", Better: "higher"},
	{Name: "core.lost_events", Unit: "count", Better: "lower"},
	{Name: "groupcache.ns_per_offer", Unit: "ns", Better: "lower"},
	{Name: "fpelim.ns_per_offer", Unit: "ns", Better: "lower"},
	{Name: "batcher.ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.store.sink_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.frame.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.frame.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.frame.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "collector.store.seen_ns_per_batch", Unit: "ns", Better: "lower"},
	{Name: "collector.store.deliver_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.store.heap_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "collector.store.est_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "collector.wal.append_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.wal.fsync_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.wal.group_commit_factor", Unit: "ratio", Better: "higher"},
	{Name: "collector.wal.bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "collector.wal.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.client.ack_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.client.ack_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "collector.client.retransmits", Unit: "count", Better: "lower"},
	{Name: "collector.client.dropped_batches", Unit: "count", Better: "lower"},
	{Name: "collector.server.ingest_lag_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.server.residual_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.recover.snapshot_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.recover.replay_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "collector.query.flow_us_p50", Unit: "us", Better: "lower"},
	{Name: "collector.query.flow_us_p99", Unit: "us", Better: "lower"},
	{Name: "collector.query.index_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.query.scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.query.rows_per_flow_query", Unit: "count", Better: "lower"},
	{Name: "collector.store.query_flow_us_p50", Unit: "us", Better: "lower"},
	{Name: "collector.store.query_index_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.store.query_scan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "collector.query.proto_us_p50", Unit: "us", Better: "lower"},
	{Name: "proc.cpu_s_per_mwork", Unit: "s", Better: "lower"},
	{Name: "proc.allocs_per_work", Unit: "count", Better: "lower"},
	{Name: "proc.gc_cpu_frac", Unit: "ratio", Better: "lower"},
	{Name: "diag.op_ms_p99", Unit: "ms", Better: "lower"},
	{Name: "diag.op_ms_max", Unit: "ms", Better: "lower"},
	{Name: "diag.round_rate_min", Unit: "1/s", Better: "higher"},
	{Name: "diag.round_rate_max", Unit: "1/s", Better: "higher"},
	{Name: "diag.work_per_s_raw", Unit: "1/s", Better: "higher"},
	{Name: "diag.op_ms_p50_raw", Unit: "ms", Better: "lower"},
	{Name: "diag.setup_s_raw", Unit: "s", Better: "lower"},
	{Name: "host.calib_mops_before", Unit: "1/us", Better: "higher"},
	{Name: "host.calib_mops_after", Unit: "1/us", Better: "higher"},
	{Name: "host.probe_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "host.speed", Unit: "ratio", Better: "higher"},
	{Name: "trace.coverage", Unit: "ratio", Better: "higher"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
}
