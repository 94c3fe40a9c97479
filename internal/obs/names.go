package obs

import "sort"

// The metric families of every NetSeer process. A row here is the only
// place a family's name, kind, help text and label keys are written: a
// Registry renders every row (a zero sample until a live series is
// registered), so the exposition surface is identical on netseerd, netsim
// and repro, and it refuses a series under an undeclared name, of another
// kind, or with an undeclared label key. A fabric shard labels its ingest,
// admission, WAL and fabric series with its shard ID.
var (
	// Step 1: detection.
	MDetectEvents = counter("netseer_detect_events_total", "Flow events emitted by Step 1 detection, by event type.", "type")
	MDetectDrops  = counter("netseer_detect_drops_total", "Drop event packets selected by Step 1, by drop code.", "code")
	MDetectLost   = counter("netseer_detect_lost_total", "Events lost to hardware capacity limits, by reason.", "reason")

	// Step 2: group caching tables.
	MGroupIngested  = counter("netseer_groupcache_ingested_total", "Event packets offered to the group caching tables.")
	MGroupReports   = counter("netseer_groupcache_reports_total", "Flow events emitted by the group caching tables.")
	MGroupMerged    = counter("netseer_groupcache_merged_total", "Event packets absorbed into a resident group-cache entry.")
	MGroupEvictions = counter("netseer_groupcache_evictions_total", "Group-cache collisions that evicted a live entry.")
	MGroupRereports = counter("netseer_groupcache_rereports_total", "Periodic C-crossing re-reports of aggregated events.")
	MGroupOccupancy = gauge("netseer_groupcache_occupancy", "Live entries across the group caching tables.")

	// Step 3: CEBP batcher.
	MBatchPushed    = counter("netseer_batcher_pushed_total", "Events pushed onto the CEBP cross-stage stack.")
	MBatchOverflow  = counter("netseer_batcher_overflow_total", "Events lost to a full CEBP stack.")
	MBatchFlushes   = counter("netseer_batcher_flushes_total", "CEBP batches flushed to the switch CPU.")
	MBatchDelivered = counter("netseer_batcher_delivered_total", "Events delivered in flushed CEBP batches.")
	MBatchPasses    = counter("netseer_batcher_passes_total", "CEBP passes over the event stack.")
	MBatchPops      = counter("netseer_batcher_pops_total", "Events popped into circulating CEBPs.")
	MBatchStackHW   = gauge("netseer_batcher_stack_highwater", "High-water mark of the CEBP stack depth.")

	// Step 4: false-positive elimination + pacing.
	MElimSeen       = counter("netseer_fpelim_seen_total", "Reports offered to the CPU false-positive eliminator.")
	MElimSuppressed = counter("netseer_fpelim_suppressed_total", "Duplicate initial reports suppressed by the CPU.")
	MElimForwarded  = counter("netseer_fpelim_forwarded_total", "Reports forwarded to the backend after elimination.")
	MPacerSent      = counter("netseer_pacer_sent_total", "Export batches admitted by the CPU pacer.")
	MPacerDelayed   = counter("netseer_pacer_delayed_total", "Export batches the pacer had to delay.")

	// Sketch detection family (count-min + space-saving + windows).
	MSketchPkts          = counter("netseer_sketch_pkts_total", "Packets observed by the sketch detection stage.")
	MSketchHHOnsets      = counter("netseer_sketch_hh_onsets_total", "Heavy-hitter onset events emitted by the count-min sketch.")
	MSketchChurn         = counter("netseer_sketch_topk_churn_total", "Top-K churn events emitted by the space-saving table.")
	MSketchSnapshots     = counter("netseer_sketch_topk_snapshots_total", "Top-K resident snapshot events emitted at flush.")
	MSketchSpikes        = counter("netseer_sketch_link_spikes_total", "Per-link aggregate spike events emitted.")
	MSketchWindowRolls   = counter("netseer_sketch_window_rolls_total", "Aggregate-spike accounting windows closed and reset.")
	MSketchSeenEvict     = counter("netseer_sketch_seen_evictions_total", "Heavy-hitter seen-filter collision evictions.")
	MSketchCMSOccupancy  = gauge("netseer_sketch_cms_occupancy", "Non-zero count-min sketch cells.")
	MSketchTopKOccupancy = gauge("netseer_sketch_topk_occupancy", "Resident space-saving table entries.")

	// Distributed tracing (internal/obs/trace).
	MTraceSpans        = counter("netseer_trace_spans_total", "Trace spans recorded across all stage rings.")
	MTraceSpansDropped = counter("netseer_trace_spans_dropped_total", "Trace spans dropped by lapped span-ring writers.")

	// Reliable switch-CPU→collector channel, client side.
	MChanConnects       = counter("netseer_channel_connects_total", "TCP connections established to the collector.")
	MChanReconnects     = counter("netseer_channel_reconnects_total", "Connections beyond the first (losses recovered by redial).")
	MChanDialFailures   = counter("netseer_channel_dial_failures_total", "Failed dial attempts of the delivery channel.")
	MChanSentBatches    = counter("netseer_channel_sent_batches_total", "Batch frames written to the wire (including rewrites).")
	MChanAckedBatches   = counter("netseer_channel_acked_batches_total", "Batches covered by a server cumulative ack.")
	MChanRetransmits    = counter("netseer_channel_retransmits_total", "Batch frames rewritten after a connection drop.")
	MChanDroppedBatches = counter("netseer_channel_dropped_batches_total", "Batches dropped on queue overflow, after close, or too large for any frame.")
	MChanFailovers      = counter("netseer_channel_failovers_total", "Connections moved to a backup collector endpoint.")
	MChanPromotions     = counter("netseer_channel_promotions_total", "Returns to the primary collector endpoint.")
	MChanBacklog        = gauge("netseer_channel_backlog", "Batches delivered but not yet acked (queue + inflight).")
	MChanBacklogHW      = gauge("netseer_channel_backlog_highwater", "Deepest the unacked backlog (queue + inflight) has been.")
	MChanAckLatency     = histogram("netseer_channel_ack_latency_us", "Microseconds from the last write of a batch to its covering ack.")

	// Ingest server.
	MIngestConnsAccepted  = counter("netseer_ingest_conns_accepted_total", "Ingest connections accepted.", "shard")
	MIngestConnsRejected  = counter("netseer_ingest_conns_rejected_total", "Connections closed because MaxConns was reached.", "shard")
	MIngestAcceptRetries  = counter("netseer_ingest_accept_retries_total", "Transient accept errors retried.", "shard")
	MIngestFrames         = counter("netseer_ingest_frames_total", "Batch frames accepted for an ack: logged (with a WAL), then stored, deduplicated or shed.", "shard")
	MIngestFrameErrors    = counter("netseer_ingest_frame_errors_total", "Connections dropped on a malformed, truncated or corrupt frame.", "shard")
	MIngestAcks           = counter("netseer_ingest_acks_total", "Cumulative-ack frames written (frames/acks = frames covered per ack).", "shard")
	MIngestAckWriteErrors = counter("netseer_ingest_ack_write_errors_total", "Failed ack writes (connection dropped; client retransmits).", "shard")
	MIngestLag            = histogram("netseer_ingest_lag_us", "Microseconds from a frame's arrival in the read buffer to store-applied-and-acked (durably, with a WAL).", "shard")

	// Durable collector: write-ahead log.
	MWALAppends         = counter("netseer_wal_appends_total", "Records appended to the write-ahead log.", "shard")
	MWALFsyncs          = counter("netseer_wal_fsyncs_total", "Disk flushes issued by the WAL (appends/fsyncs = group-commit factor).", "shard")
	MWALSnapshots       = counter("netseer_wal_snapshots_total", "Store snapshots installed by checkpoints.", "shard")
	MWALSegmentsDropped = counter("netseer_wal_segments_dropped_total", "WAL segments deleted by snapshot truncation.", "shard")
	MWALAppendErrors    = counter("netseer_wal_append_errors_total", "Ingest frames dropped because the WAL append failed.", "shard")
	MWALSegments        = gauge("netseer_wal_segments", "Live WAL segment files.", "shard")
	MWALSizeBytes       = gauge("netseer_wal_size_bytes", "Bytes across live WAL segments.", "shard")
	MWALPending         = gauge("netseer_wal_pending_records", "Appended WAL records not yet covered by an fsync.", "shard")

	// Durable collector: storage-fault posture (scrub + fail-stop).
	MWALScrubs        = counter("netseer_wal_scrubs_total", "Completed WAL scrub passes (background bit-rot checks).", "shard")
	MWALQuarantined   = counter("netseer_wal_quarantined_total", "WAL segments or snapshots quarantined by scrub CRC failures.", "shard")
	MDurabilityFailed = gauge("netseer_durability_failed", "1 once the WAL has poisoned itself and the server refuses ingest.", "shard")

	// Durable collector: admission control (overload shedding).
	MAdmitState       = gauge("netseer_admit_state", "Admission ladder rung: 0 ok, 1 slow (acks delayed), 2 shed (WAL-only).", "shard")
	MAdmitTransitions = counter("netseer_admit_transitions_total", "Admission ladder rung changes.", "shard")
	MAdmitAckDelays   = counter("netseer_admit_ack_delays_total", "Acks delayed by the slow watermark.", "shard")
	MAdmitShedBatches = counter("netseer_admit_shed_batches_total", "Batches WAL-ed but not indexed above the shed watermark.", "shard")
	MAdmitShedEvents  = counter("netseer_admit_shed_events_total", "Events in shed batches (queryable only after a restart replay).", "shard")

	// Event store.
	MStoreEvents     = gauge("netseer_store_events", "Events resident in the store, by event type and reporting switch; an epoch fence or a reset lowers it.", "type", "switch")
	MStoreFlows      = gauge("netseer_store_flows", "Distinct flows with at least one stored event.")
	MStoreDupBatches = counter("netseer_store_dup_batches_total", "Replayed batches dropped by (switch, seq) dedup.")
	MStoreBytes      = gauge("netseer_store_bytes", "Estimated resident bytes of the event store (admission-control input).", "shard")

	// End-to-end latency tracing (switch clock, microseconds).
	MDetectToCPU   = histogram("netseer_detect_to_cpu_latency_us", "Microseconds from event detection to switch-CPU batch arrival (switch clock).")
	MDetectToStore = histogram("netseer_detect_to_store_latency_us", "Microseconds from event detection (switch clock) to storage; 0 for wire-delivered batches, whose records carry only the batch stamp.")

	// Query server.
	MQueryRequests = counter("netseer_query_requests_total", "Query-protocol requests, by verb.", "verb")
	MQueryErrors   = counter("netseer_query_errors_total", "Query-protocol requests answered with an error line.")

	// Sharded collector fabric: routing, membership, rebalances.
	MFabricRoutedBatches   = counter("netseer_fabric_routed_batches_total", "Batches routed to a shard by the slot ring.", "shard")
	MFabricReroutedBatches = counter("netseer_fabric_rerouted_batches_total", "Batches re-routed whole after a ring change removed their shard.")
	MFabricRebalances      = counter("netseer_fabric_rebalances_total", "Rebalances completed or aborted by the coordinator.")
	MFabricRebalanceBytes  = counter("netseer_fabric_rebalance_bytes_total", "Bytes of event payload moved by rebalance handoffs.", "shard")
	MFabricEpoch           = gauge("netseer_fabric_epoch", "Ring config epoch this process last applied (a coordinator: last published).", "shard")
	MFabricImportedEvents  = counter("netseer_fabric_imported_events_total", "Events imported from rebalance handoffs.", "shard")
	MFabricFencedEvents    = counter("netseer_fabric_fenced_events_total", "Events removed by an epoch fence after handoff.", "shard")

	// Go runtime and process (Prometheus Go-client names).
	MGoroutines     = gauge("go_goroutines", "Number of live goroutines.")
	MHeapAllocBytes = gauge("go_memstats_heap_alloc_bytes", "Bytes of allocated heap objects.")
	MAllocBytes     = counter("go_memstats_alloc_bytes_total", "Cumulative bytes allocated for heap objects.")
	MGCCycles       = counter("go_gc_cycles_total", "Completed GC cycles.")
	MUptime         = gauge("process_uptime_seconds", "Seconds since the process registered its telemetry.")
)

// decl is one row of the table above.
type decl struct {
	name, help string
	kind       Kind
	labels     []string
}

// catalog holds every declared family, sorted by name once the table
// above is built.
var catalog []decl

func declare(kind Kind, name, help string, labels []string) string {
	catalog = append(catalog, decl{name: name, help: help, kind: kind, labels: labels})
	return name
}

func counter(name, help string, labels ...string) string {
	return declare(KindCounter, name, help, labels)
}

func gauge(name, help string, labels ...string) string {
	return declare(KindGauge, name, help, labels)
}

func histogram(name, help string, labels ...string) string {
	return declare(KindHistogram, name, help, labels)
}

func init() {
	sort.Slice(catalog, func(i, j int) bool { return catalog[i].name < catalog[j].name })
}
