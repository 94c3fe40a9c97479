package obs

// Canonical metric names shared by every NetSeer process. Each pipeline
// stage registers live series under these names; RegisterCatalog gives a
// daemon that does not run a stage a zero-valued placeholder, so the
// exposition surface is identical on netseerd, netsim and repro and
// dashboards never chase missing series.
const (
	// Step 1: detection.
	MDetectEvents = "netseer_detect_events_total" // label type
	MDetectDrops  = "netseer_detect_drops_total"  // label code
	MDetectLost   = "netseer_detect_lost_total"   // label reason

	// Step 2: group caching tables.
	MGroupIngested  = "netseer_groupcache_ingested_total"
	MGroupReports   = "netseer_groupcache_reports_total"
	MGroupMerged    = "netseer_groupcache_merged_total"
	MGroupEvictions = "netseer_groupcache_evictions_total"
	MGroupRereports = "netseer_groupcache_rereports_total"
	MGroupOccupancy = "netseer_groupcache_occupancy"

	// Step 3: CEBP batcher.
	MBatchPushed    = "netseer_batcher_pushed_total"
	MBatchOverflow  = "netseer_batcher_overflow_total"
	MBatchFlushes   = "netseer_batcher_flushes_total"
	MBatchDelivered = "netseer_batcher_delivered_total"
	MBatchPasses    = "netseer_batcher_passes_total"
	MBatchPops      = "netseer_batcher_pops_total"
	MBatchStackHW   = "netseer_batcher_stack_highwater"

	// Step 4: false-positive elimination + pacing.
	MElimSeen       = "netseer_fpelim_seen_total"
	MElimSuppressed = "netseer_fpelim_suppressed_total"
	MElimForwarded  = "netseer_fpelim_forwarded_total"
	MPacerSent      = "netseer_pacer_sent_total"
	MPacerDelayed   = "netseer_pacer_delayed_total"

	// Sketch detection family (count-min + space-saving + windows).
	MSketchPkts          = "netseer_sketch_pkts_total"
	MSketchHHOnsets      = "netseer_sketch_hh_onsets_total"
	MSketchChurn         = "netseer_sketch_topk_churn_total"
	MSketchSnapshots     = "netseer_sketch_topk_snapshots_total"
	MSketchSpikes        = "netseer_sketch_link_spikes_total"
	MSketchWindowRolls   = "netseer_sketch_window_rolls_total"
	MSketchSeenEvict     = "netseer_sketch_seen_evictions_total"
	MSketchCMSOccupancy  = "netseer_sketch_cms_occupancy"
	MSketchTopKOccupancy = "netseer_sketch_topk_occupancy"

	// Distributed tracing (internal/obs/trace).
	MTraceSpans        = "netseer_trace_spans_total"
	MTraceSpansDropped = "netseer_trace_spans_dropped_total"

	// Reliable switch-CPU→collector channel, client side.
	MChanConnects       = "netseer_channel_connects_total"
	MChanReconnects     = "netseer_channel_reconnects_total"
	MChanDialFailures   = "netseer_channel_dial_failures_total"
	MChanSentBatches    = "netseer_channel_sent_batches_total"
	MChanAckedBatches   = "netseer_channel_acked_batches_total"
	MChanRetransmits    = "netseer_channel_retransmits_total"
	MChanDroppedBatches = "netseer_channel_dropped_batches_total"
	MChanBacklog        = "netseer_channel_backlog"
	MChanBacklogHW      = "netseer_channel_backlog_highwater"
	MChanAckLatency     = "netseer_channel_ack_latency_us"

	// Ingest server.
	MIngestConnsAccepted  = "netseer_ingest_conns_accepted_total"
	MIngestConnsRejected  = "netseer_ingest_conns_rejected_total"
	MIngestAcceptRetries  = "netseer_ingest_accept_retries_total"
	MIngestFrames         = "netseer_ingest_frames_total"
	MIngestFrameErrors    = "netseer_ingest_frame_errors_total"
	MIngestAcks           = "netseer_ingest_acks_total"
	MIngestAckWriteErrors = "netseer_ingest_ack_write_errors_total"
	MIngestLag            = "netseer_ingest_lag_us"

	// Reliable channel, multi-endpoint failover (client side).
	MChanFailovers  = "netseer_channel_failovers_total"
	MChanPromotions = "netseer_channel_promotions_total"

	// Durable collector: write-ahead log.
	MWALAppends         = "netseer_wal_appends_total"
	MWALFsyncs          = "netseer_wal_fsyncs_total"
	MWALSnapshots       = "netseer_wal_snapshots_total"
	MWALSegmentsDropped = "netseer_wal_segments_dropped_total"
	MWALAppendErrors    = "netseer_wal_append_errors_total"
	MWALSegments        = "netseer_wal_segments"
	MWALSizeBytes       = "netseer_wal_size_bytes"
	MWALPending         = "netseer_wal_pending_records"

	// Durable collector: storage-fault posture (scrub + fail-stop).
	MWALScrubs        = "netseer_wal_scrubs_total"
	MWALQuarantined   = "netseer_wal_quarantined_total"
	MDurabilityFailed = "netseer_durability_failed"

	// Durable collector: admission control (overload shedding).
	MAdmitState       = "netseer_admit_state"
	MAdmitTransitions = "netseer_admit_transitions_total"
	MAdmitAckDelays   = "netseer_admit_ack_delays_total"
	MAdmitShedBatches = "netseer_admit_shed_batches_total"
	MAdmitShedEvents  = "netseer_admit_shed_events_total"

	// Event store.
	MStoreEvents     = "netseer_store_events_total" // labels type, switch
	MStoreFlows      = "netseer_store_flows"
	MStoreDupBatches = "netseer_store_dup_batches_total"
	MStoreBytes      = "netseer_store_bytes"

	// End-to-end latency tracing (switch clock, microseconds).
	MDetectToCPU   = "netseer_detect_to_cpu_latency_us"
	MDetectToStore = "netseer_detect_to_store_latency_us"

	// Query server.
	MQueryRequests = "netseer_query_requests_total" // label verb
	MQueryErrors   = "netseer_query_errors_total"

	// Sharded collector fabric: routing, membership, rebalances.
	MFabricRoutedBatches   = "netseer_fabric_routed_batches_total" // label shard
	MFabricReroutedBatches = "netseer_fabric_rerouted_batches_total"
	MFabricRebalances      = "netseer_fabric_rebalances_total"
	MFabricRebalanceBytes  = "netseer_fabric_rebalance_bytes_total" // label shard
	MFabricEpoch           = "netseer_fabric_epoch"
	MFabricImportedEvents  = "netseer_fabric_imported_events_total" // label shard
	MFabricFencedEvents    = "netseer_fabric_fenced_events_total"   // label shard
)

// catalogEntry describes one canonical family for RegisterCatalog.
type catalogEntry struct {
	name, help string
	kind       Kind
}

var catalog = []catalogEntry{
	{MDetectEvents, "Flow events emitted by Step 1 detection, by event type.", KindCounter},
	{MDetectDrops, "Drop event packets selected by Step 1, by drop code.", KindCounter},
	{MDetectLost, "Events lost to hardware capacity limits, by reason.", KindCounter},
	{MGroupIngested, "Event packets offered to the group caching tables.", KindCounter},
	{MGroupReports, "Flow events emitted by the group caching tables.", KindCounter},
	{MGroupMerged, "Event packets absorbed into a resident group-cache entry.", KindCounter},
	{MGroupEvictions, "Group-cache collisions that evicted a live entry.", KindCounter},
	{MGroupRereports, "Periodic C-crossing re-reports of aggregated events.", KindCounter},
	{MGroupOccupancy, "Live entries across the group caching tables.", KindGauge},
	{MBatchPushed, "Events pushed onto the CEBP cross-stage stack.", KindCounter},
	{MBatchOverflow, "Events lost to a full CEBP stack.", KindCounter},
	{MBatchFlushes, "CEBP batches flushed to the switch CPU.", KindCounter},
	{MBatchDelivered, "Events delivered in flushed CEBP batches.", KindCounter},
	{MBatchPasses, "CEBP passes over the event stack.", KindCounter},
	{MBatchPops, "Events popped into circulating CEBPs.", KindCounter},
	{MBatchStackHW, "High-water mark of the CEBP stack depth.", KindGauge},
	{MElimSeen, "Reports offered to the CPU false-positive eliminator.", KindCounter},
	{MElimSuppressed, "Duplicate initial reports suppressed by the CPU.", KindCounter},
	{MElimForwarded, "Reports forwarded to the backend after elimination.", KindCounter},
	{MPacerSent, "Export batches admitted by the CPU pacer.", KindCounter},
	{MPacerDelayed, "Export batches the pacer had to delay.", KindCounter},
	{MSketchPkts, "Packets observed by the sketch detection stage.", KindCounter},
	{MSketchHHOnsets, "Heavy-hitter onset events emitted by the count-min sketch.", KindCounter},
	{MSketchChurn, "Top-K churn events emitted by the space-saving table.", KindCounter},
	{MSketchSnapshots, "Top-K resident snapshot events emitted at flush.", KindCounter},
	{MSketchSpikes, "Per-link aggregate spike events emitted.", KindCounter},
	{MSketchWindowRolls, "Aggregate-spike accounting windows closed and reset.", KindCounter},
	{MSketchSeenEvict, "Heavy-hitter seen-filter collision evictions.", KindCounter},
	{MSketchCMSOccupancy, "Non-zero count-min sketch cells.", KindGauge},
	{MSketchTopKOccupancy, "Resident space-saving table entries.", KindGauge},
	{MTraceSpans, "Trace spans recorded across all stage rings.", KindCounter},
	{MTraceSpansDropped, "Trace spans dropped by lapped span-ring writers.", KindCounter},
	{MChanConnects, "Successful dials of the reliable delivery channel.", KindCounter},
	{MChanReconnects, "Reconnects after the first successful dial.", KindCounter},
	{MChanDialFailures, "Failed dial attempts of the delivery channel.", KindCounter},
	{MChanSentBatches, "Frames written to the wire, including retransmits.", KindCounter},
	{MChanAckedBatches, "Batches covered by cumulative acks.", KindCounter},
	{MChanRetransmits, "Frames rewritten after a connection drop.", KindCounter},
	{MChanDroppedBatches, "Batches dropped at the bounded client queue.", KindCounter},
	{MChanBacklog, "Batches queued or in flight on the delivery channel.", KindGauge},
	{MChanBacklogHW, "High-water mark of the delivery channel backlog.", KindGauge},
	{MChanAckLatency, "Microseconds from a batch's last write to its covering ack.", KindHistogram},
	{MIngestConnsAccepted, "Ingest connections accepted.", KindCounter},
	{MIngestConnsRejected, "Ingest connections rejected over the concurrency cap.", KindCounter},
	{MIngestAcceptRetries, "Transient accept errors survived.", KindCounter},
	{MIngestFrames, "Batches read off the wire and delivered to the store.", KindCounter},
	{MIngestFrameErrors, "Connections dropped on a malformed or corrupt frame.", KindCounter},
	{MIngestAcks, "Cumulative-ack frames written; frames_total / acks_total is the frames one ack covers.", KindCounter},
	{MIngestAckWriteErrors, "Connections dropped while writing an ack.", KindCounter},
	{MIngestLag, "Microseconds from a frame's arrival in the read buffer to store-applied and acked.", KindHistogram},
	{MChanFailovers, "Failovers from the primary collector endpoint to a backup.", KindCounter},
	{MChanPromotions, "Promotions back to the primary collector endpoint.", KindCounter},
	{MWALAppends, "Records appended to the collector write-ahead log.", KindCounter},
	{MWALFsyncs, "Disk flushes issued by the WAL (appends/fsyncs = group-commit factor).", KindCounter},
	{MWALSnapshots, "Store snapshots installed by checkpoints.", KindCounter},
	{MWALSegmentsDropped, "WAL segments deleted by snapshot truncation.", KindCounter},
	{MWALAppendErrors, "Ingest frames dropped because the WAL append failed.", KindCounter},
	{MWALSegments, "Live WAL segment files.", KindGauge},
	{MWALSizeBytes, "Bytes across live WAL segments.", KindGauge},
	{MWALPending, "Appended WAL records not yet covered by an fsync.", KindGauge},
	{MWALScrubs, "Completed WAL scrub passes (background bit-rot checks).", KindCounter},
	{MWALQuarantined, "WAL segments or snapshots quarantined by scrub CRC failures.", KindCounter},
	{MDurabilityFailed, "1 once the WAL has poisoned itself and the server refuses ingest.", KindGauge},
	{MAdmitState, "Admission ladder rung: 0 ok, 1 slow (acks delayed), 2 shed (WAL-only).", KindGauge},
	{MAdmitTransitions, "Admission ladder rung changes.", KindCounter},
	{MAdmitAckDelays, "Acks delayed by the slow watermark.", KindCounter},
	{MAdmitShedBatches, "Batches WAL-ed but not indexed above the shed watermark.", KindCounter},
	{MAdmitShedEvents, "Events in shed batches (queryable only after a restart replay).", KindCounter},
	{MStoreEvents, "Events resident in the store, by event type and switch.", KindCounter},
	{MStoreFlows, "Distinct flows with stored events.", KindGauge},
	{MStoreDupBatches, "Replayed batches dropped by (switch, seq) dedup.", KindCounter},
	{MStoreBytes, "Estimated resident bytes of the event store (admission-control input).", KindGauge},
	{MDetectToCPU, "Microseconds from event detection to switch-CPU batch arrival (switch clock).", KindHistogram},
	{MDetectToStore, "Microseconds from event detection to store ingestion (switch clock).", KindHistogram},
	{MQueryRequests, "Query-protocol requests served, by verb.", KindCounter},
	{MQueryErrors, "Query-protocol requests answered with an error.", KindCounter},
	{MFabricRoutedBatches, "Batches routed to a shard by the slot ring.", KindCounter},
	{MFabricReroutedBatches, "Batches re-routed whole after a ring change removed their shard.", KindCounter},
	{MFabricRebalances, "Rebalances completed or aborted by the coordinator.", KindCounter},
	{MFabricRebalanceBytes, "Bytes of event payload moved by rebalance handoffs.", KindCounter},
	{MFabricEpoch, "Ring config epoch this process last applied.", KindGauge},
	{MFabricImportedEvents, "Events imported from rebalance handoffs.", KindCounter},
	{MFabricFencedEvents, "Events removed by an epoch fence after handoff.", KindCounter},
}

// RegisterCatalog registers a zero-valued placeholder for every canonical
// family. Call it once per daemon before stage wiring; stages that do run
// then replace their placeholders with live series.
func RegisterCatalog(r *Registry) {
	for _, e := range catalog {
		r.Placeholder(e.name, e.help, e.kind)
	}
}
