package fabric

import (
	"encoding/base64"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
)

// rbState tracks one open transfer on this node: the record image of the
// captured (source) or imported (destination) events, whose multiset the
// fence removes and the release forgets.
type rbState struct {
	img      []byte // the events, as Store.AppendImage writes them
	imported bool
}

// transfers is a shard's open-transfer table. Its commit, fence and
// release are what the bookkeeping records of those names do to the table
// and the store, written once: replay applies them to the records it
// reads, and the admin handlers right after they log those records, so a
// recovered shard holds what the live one did.
type transfers map[uint64]*rbState

// commit opens transfer rb over a checked image (fevent.CheckImage). An
// import merges the source's dedup set and stores the events; a source
// capture leaves them where they are until its fence.
func (t transfers) commit(store *collector.Store, rb uint64, img []byte, seen []collector.BatchID, imported bool) *rbState {
	st := &rbState{img: img, imported: imported}
	t[rb] = st
	store.MergeSeen(seen)
	if imported {
		store.ImportImage(img) // checked before it was logged
	}
	return st
}

// fence closes rb and removes exactly its multiset: the other side of
// the cutover owns those events now. It returns how many it removed.
func (t transfers) fence(store *collector.Store, rb uint64) int {
	st := t[rb]
	if st == nil {
		return 0 // already closed or never opened here
	}
	delete(t, rb)
	removed, _ := store.RemoveImage(st.img) // checked at its commit
	return removed
}

// release closes rb keeping its events: this side won the cutover.
func (t transfers) release(rb uint64) { delete(t, rb) }

// ShardOptions configures one shard node.
type ShardOptions struct {
	ID  uint32
	Dir string // WAL + config directory (created if missing)

	// Listen addresses ("127.0.0.1:0" for tests).
	IngestAddr string
	QueryAddr  string
	AdminAddr  string

	// Server carries the ingest tuning forwarded to collector.StartNode
	// (its WAL is replaced — the shard owns its log). Its Listener, when
	// set, is served instead of binding IngestAddr — chaos tests
	// interpose fault-injected wires there.
	Server collector.ServerConfig
	// WAL tunes the log: its segment size, and the filesystem it runs on
	// (fault tests script disk failures there).
	WAL wal.Options

	// StageDelay is a test hook: sleep this long inside the import
	// handler between durability and the reply, widening the window a
	// SIGKILL lands in mid-rebalance.
	StageDelay time.Duration
}

// ShardNode is one member of the collector fabric: a durable
// collector.Node plus the admin surface the coordinator drives
// rebalances through. Its log holds the frames it ingested, as a
// standalone collector's does, and the rebalance bookkeeping records of
// records.go, so a SIGKILL at any point recovers to a state the
// coordinator can resolve. It is run as a collector: the node's Drain,
// Healthz and ScrubWAL are its own, and its Checkpoint waits for open
// transfers.
type ShardNode struct {
	*collector.Node
	ID  uint32
	dir string

	admin *collector.Service

	mu     sync.Mutex
	cfg    Config
	openRB transfers

	stageDelay time.Duration

	importedEvents obs.Counter
	fencedEvents   obs.Counter
	rebalanceBytes obs.Counter
}

// configPath is where a shard persists the last applied ring config.
func configPath(dir string) string { return filepath.Join(dir, "ring-config.json") }

// replay returns the handler the collector's one replay loop passes a
// shard log's bookkeeping records (records.go) to, rebuilding t beside the
// store; frames go into the store as on a standalone collector. Transfer
// chunks buffer until their commit seals them (as a source capture when
// an 'M' opened the rb here, as a destination import otherwise); the
// commit, fence and release then act through t as they did live. The
// result matches the pre-crash state for every committed operation;
// uncommitted marks and imports vanish whole and are retried from scratch
// by the coordinator.
func (t transfers) replay() func(*collector.Store, []byte) error {
	marked := make(map[uint64]bool) // rbs an 'M' opened here: source captures
	chunks := make(map[uint64][][]byte)
	return func(store *collector.Store, payload []byte) error {
		tag, rb, body, err := parseRecord(payload)
		if err != nil {
			return err
		}
		switch tag {
		case recMark:
			if len(body) < 8 {
				return errors.New("fabric: mark record truncated")
			}
			marked[rb] = true
			chunks[rb] = nil // a re-marked rb starts its capture over
		case recImport:
			if len(body) < 1 {
				return errors.New("fabric: transfer chunk truncated")
			}
			chunks[rb] = append(chunks[rb], append([]byte(nil), body...))
		case recCommit:
			// A chunk split its blob at a byte count, not at a batch: join
			// each kind's chunks, then check once.
			isSource := marked[rb]
			var seenBlob, img []byte
			for _, ch := range chunks[rb] {
				switch kind, blob := ch[0], ch[1:]; kind {
				case chunkSeen:
					if isSource {
						return errors.New("fabric: seen chunk in a source capture")
					}
					seenBlob = append(seenBlob, blob...)
				case chunkEvents:
					img = append(img, blob...)
				default:
					return fmt.Errorf("fabric: unknown transfer chunk kind %q", kind)
				}
			}
			ids, err := decodeSeenSet(seenBlob)
			if err != nil {
				return err
			}
			if _, err := fevent.CheckImage(img); err != nil {
				return fmt.Errorf("fabric: transfer %d: %w", rb, err)
			}
			delete(chunks, rb)
			delete(marked, rb)
			t.commit(store, rb, img, ids, !isSource)
		case recFence:
			t.fence(store, rb)
		case recRelease:
			t.release(rb)
		default:
			return fmt.Errorf("fabric: unknown WAL record tag %q", tag)
		}
		return nil
	}
}

// captureSlots writes the record image of every stored event whose slot
// is in the mask.
func captureSlots(store *collector.Store, mask uint64) []byte {
	var flow pkt.FlowKey
	return store.AppendImage(nil, &collector.Filter{}, func(sw uint16, rec *[fevent.RecordLen]byte) bool {
		flow.SetWire((*[pkt.FlowKeyLen]byte)(rec[fevent.RecordFlowOff:]))
		return slotMaskHas(mask, SlotOf(sw, flow))
	})
}

// StartShard opens (or recovers) a shard node in opts.Dir and starts its
// ingest, query and admin listeners.
func StartShard(opts ShardOptions) (*ShardNode, error) {
	if opts.Dir == "" {
		return nil, errors.New("fabric: a shard needs a data dir: its handoffs are logged")
	}
	open := make(transfers)
	node, err := collector.StartNode(opts.Dir, opts.IngestAddr, opts.QueryAddr, opts.Server, opts.WAL, opts.ID, open.replay())
	if err != nil {
		return nil, err
	}
	n := &ShardNode{Node: node, ID: opts.ID, dir: opts.Dir, openRB: open, stageDelay: opts.StageDelay}
	if data, err := os.ReadFile(configPath(opts.Dir)); err == nil {
		if cfg, err := DecodeConfig(data); err == nil {
			n.cfg = cfg
		}
	}
	if n.admin, err = collector.Listen(opts.AdminAddr, nil); err != nil {
		node.Close()
		return nil, err
	}
	n.admin.Start(nil, serveJSON(n.handleAdmin))
	return n, nil
}

// RegisterMetrics exposes the shard's instruments on r: its node's, the
// ingest and log series labelled with the shard, and the rebalance
// counters and the applied epoch.
func (n *ShardNode) RegisterMetrics(r *obs.Registry) {
	shard := obs.L("shard", strconv.Itoa(int(n.ID)))
	n.Node.RegisterMetrics(r, shard)
	r.RegisterCounter(obs.MFabricImportedEvents, &n.importedEvents, shard)
	r.RegisterCounter(obs.MFabricFencedEvents, &n.fencedEvents, shard)
	r.RegisterCounter(obs.MFabricRebalanceBytes, &n.rebalanceBytes, shard)
	r.Func(obs.MFabricEpoch, func() float64 {
		n.mu.Lock()
		defer n.mu.Unlock()
		return float64(n.cfg.Epoch)
	}, shard)
}

// IngestAddr returns the ingest listener's address.
func (n *ShardNode) IngestAddr() string { return n.Addr() }

// AdminAddr returns the admin listener's address.
func (n *ShardNode) AdminAddr() string { return n.admin.Addr() }

// Info assembles this node's ShardInfo from its live listeners.
func (n *ShardNode) Info() ShardInfo {
	return ShardInfo{
		ID:     n.ID,
		Ingest: []string{n.IngestAddr()},
		Query:  n.QueryAddr(),
		Admin:  n.AdminAddr(),
	}
}

// Epoch returns the last applied config epoch.
func (n *ShardNode) Epoch() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.cfg.Epoch
}

// OpenTransfers lists the rb IDs currently open on this node.
func (n *ShardNode) OpenTransfers() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]uint64, 0, len(n.openRB))
	for rb := range n.openRB {
		out = append(out, rb)
	}
	return out
}

// Checkpoint snapshots the store and truncates the WAL — refused while
// any transfer is open, because replay rebuilds an open transfer only
// from its M/I/C records, and truncation would drop them.
func (n *ShardNode) Checkpoint() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	if len(n.openRB) > 0 {
		return fmt.Errorf("fabric: %d transfers open, checkpoint deferred", len(n.openRB))
	}
	return n.Node.Checkpoint()
}

// Close stops the admin listener, then the node: every listener and its
// connections, the WAL last so in-flight ingestion fails cleanly first.
func (n *ShardNode) Close() error {
	n.admin.Close()
	return n.Node.Close()
}

// Admin protocol: one JSON object per line in each direction (jsonline.go).
//
//	{"op":"ping"}                             → {"ok":true,"shard":N,"epoch":E,"rbs":[...]}
//	{"op":"apply","config":{...}}             → {"ok":true}
//	{"op":"mark","rb":N,"mask":M}             → {"ok":true,"events":"b64","seen":"b64"}
//	{"op":"import","rb":N,"events":..,"seen":..} → {"ok":true}
//	{"op":"fence","rb":N}                     → {"ok":true}
//	{"op":"release","rb":N}                   → {"ok":true}
//
// Every operation is idempotent: mark of an open rb re-serves its
// capture, import of a committed rb acks without re-appending, and
// fence/release of an unknown rb succeed as no-ops — the coordinator
// retries each step until acknowledged.
type adminReq struct {
	Op     string  `json:"op"`
	RB     uint64  `json:"rb,omitempty"`
	Mask   uint64  `json:"mask,omitempty"`
	Config *Config `json:"config,omitempty"`
	Events string  `json:"events,omitempty"`
	Seen   string  `json:"seen,omitempty"`
}

type adminResp struct {
	OK     bool     `json:"ok"`
	Err    string   `json:"err,omitempty"`
	Shard  uint32   `json:"shard,omitempty"`
	Epoch  uint64   `json:"epoch,omitempty"`
	RBs    []uint64 `json:"rbs,omitempty"`
	Events string   `json:"events,omitempty"`
	Seen   string   `json:"seen,omitempty"`
	// Health rides on ping/status replies; the coordinator's /fleet plane
	// is assembled from it.
	Health *ShardHealth `json:"health,omitempty"`
}

// ShardHealth is one shard's self-reported health, served on its admin
// status op and merged into the coordinator's /fleet plane.
type ShardHealth struct {
	Admission string `json:"admission"`
	// Durability is "ok" until the shard's WAL poisons itself, after
	// which it carries the first fsync/write error. A non-ok shard has
	// stopped accepting ingest and needs operator attention (likely a
	// dying disk) — its data remains queryable and fan-out routes around
	// it for writes.
	Durability    string `json:"durability"`
	WALPending    uint64 `json:"wal_pending"`
	WALSizeBytes  int64  `json:"wal_size_bytes"`
	WALSegments   int    `json:"wal_segments"`
	StoreEvents   uint64 `json:"store_events"`
	StoreBytes    int64  `json:"store_bytes"`
	DupBatches    uint64 `json:"dup_batches"`
	OpenTransfers int    `json:"open_transfers"`
	TraceSpans    uint64 `json:"trace_spans"`
	TraceDropped  uint64 `json:"trace_dropped"`
	// Exemplars are the shard's histogram-bucket exemplars: the last
	// trace ID each latency bucket saw, pairing /fleet health with the
	// trace to pull for the slow tail.
	Exemplars []ExemplarRef `json:"exemplars,omitempty"`
}

// ExemplarRef names one histogram bucket exemplar in fleet output.
type ExemplarRef struct {
	Metric  string  `json:"metric"`
	ValueUs float64 `json:"value_us"`
	Trace   string  `json:"trace"`
}

// healthLocked assembles the shard's health payload. Caller holds n.mu.
func (n *ShardNode) healthLocked() *ShardHealth {
	ws := n.WAL().Stats()
	durability := "ok"
	if err := n.DurabilityErr(); err != nil {
		durability = err.Error()
	}
	h := &ShardHealth{
		Admission:     n.AdmitState(),
		Durability:    durability,
		WALPending:    ws.PendingDurable,
		WALSizeBytes:  ws.SizeBytes,
		WALSegments:   ws.Segments,
		StoreEvents:   uint64(n.Store().Len()),
		StoreBytes:    n.Store().MemoryBytes(),
		DupBatches:    n.Store().DupBatches(),
		OpenTransfers: len(n.openRB),
		TraceSpans:    trace.Default.Recorded(),
		TraceDropped:  trace.Default.Dropped(),
	}
	// The snapshots hold one slot per bucket with zero TraceID meaning
	// "no traced observation landed here" — only real exemplars travel.
	for _, hist := range []struct {
		metric string
		exs    []obs.Exemplar
	}{{obs.MIngestLag, n.TraceExemplars()}, {obs.MDetectToStore, n.Store().TraceExemplars()}} {
		for _, ex := range hist.exs {
			if ex.TraceID != 0 {
				h.Exemplars = append(h.Exemplars, ExemplarRef{Metric: hist.metric, ValueUs: ex.Value, Trace: trace.FormatID(ex.TraceID)})
			}
		}
	}
	return h
}

func (n *ShardNode) handleAdmin(req *adminReq) adminResp {
	switch req.Op {
	case "ping", "status":
		rbs := n.OpenTransfers()
		n.mu.Lock()
		defer n.mu.Unlock()
		return adminResp{OK: true, Shard: n.ID, Epoch: n.cfg.Epoch, RBs: rbs, Health: n.healthLocked()}
	case "apply":
		return n.handleApply(req)
	case "mark":
		return n.handleMark(req)
	case "import":
		return n.handleImport(req)
	case "fence":
		return n.handleClose(req, recFence)
	case "release":
		return n.handleClose(req, recRelease)
	default:
		return adminResp{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
}

func (n *ShardNode) handleApply(req *adminReq) adminResp {
	if req.Config == nil {
		return adminResp{Err: "apply: missing config"}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if req.Config.Epoch < n.cfg.Epoch {
		return adminResp{Err: fmt.Sprintf("apply: epoch %d behind applied %d", req.Config.Epoch, n.cfg.Epoch)}
	}
	// Persist before acking so a restarted shard still knows its epoch.
	if err := faultfs.ReplaceFile(faultfs.OS, configPath(n.dir), req.Config.Encode()); err != nil {
		return adminResp{Err: fmt.Sprintf("apply: persisting epoch %d: %v", req.Config.Epoch, err)}
	}
	n.cfg = *req.Config
	return adminResp{OK: true, Epoch: n.cfg.Epoch}
}

// handleMark opens transfer rb: under the ingest barrier it logs the
// mark and captures the masked slots — the cut "everything stored so
// far moves; later arrivals stay". The capture is then logged verbatim
// (chunks + commit) so replay restores it without recomputation, and
// only the commit's durability gates the reply. The reply carries the
// capture plus the full (switch, seq) dedup set, so re-routed
// stored-but-unacked batches still dedup at the destination.
func (n *ShardNode) handleMark(req *adminReq) adminResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	st := n.openRB[req.RB]
	if st == nil {
		start := trace.Now()
		var capture []byte
		err := n.WithIngestBarrier(func() error {
			if _, err := n.WAL().Append(encodeMark(req.RB, req.Mask), false); err != nil {
				return err
			}
			capture = captureSlots(n.Store(), req.Mask)
			return nil
		})
		if err == nil {
			err = n.appendChunked(req.RB, chunkEvents, capture)
		}
		if err == nil {
			err = n.WAL().AppendDurable(encodeRB(recCommit, req.RB), false)
		}
		if err != nil {
			return adminResp{Err: fmt.Sprintf("mark: %v", err)}
		}
		st = n.openRB.commit(n.Store(), req.RB, capture, nil, false)
		events, _ := fevent.CheckImage(capture)
		n.recordHandoffSpan(req.RB, start, events, handoffSource)
	}
	seenBlob := encodeSeenSet(n.Store().ExportSeen())
	n.rebalanceBytes.Add(uint64(len(st.img)))
	return adminResp{
		OK:     true,
		Events: base64.StdEncoding.EncodeToString(st.img),
		Seen:   base64.StdEncoding.EncodeToString(seenBlob),
	}
}

// importChunkBytes splits big handoffs into WAL-sized records.
const importChunkBytes = 256 << 10

// appendChunked logs one transfer blob as a run of chunk records. An
// empty blob still writes one (empty) chunk so the commit has something
// to seal.
func (n *ShardNode) appendChunked(rb uint64, kind byte, blob []byte) error {
	for off := 0; ; off += importChunkBytes {
		end := off + importChunkBytes
		if end > len(blob) {
			end = len(blob)
		}
		if _, err := n.WAL().Append(encodeImportChunk(rb, kind, blob[off:end]), false); err != nil {
			return err
		}
		if end == len(blob) {
			return nil
		}
	}
}

// handleImport commits transfer rb's events and dedup set durably, then
// applies them to the store. The chunks land before a single commit
// record, so a crash mid-append leaves nothing applied at replay and the
// coordinator's retry re-ships from scratch.
func (n *ShardNode) handleImport(req *adminReq) adminResp {
	img, err := base64.StdEncoding.DecodeString(req.Events)
	if err != nil {
		return adminResp{Err: fmt.Sprintf("import: bad events: %v", err)}
	}
	seenBlob, err := base64.StdEncoding.DecodeString(req.Seen)
	if err != nil {
		return adminResp{Err: fmt.Sprintf("import: bad seen: %v", err)}
	}
	events, err := fevent.CheckImage(img)
	if err != nil {
		return adminResp{Err: fmt.Sprintf("import: bad events: %v", err)}
	}
	seen, err := decodeSeenSet(seenBlob)
	if err != nil {
		return adminResp{Err: err.Error()}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	start := trace.Now()
	if st := n.openRB[req.RB]; st != nil && st.imported {
		return adminResp{OK: true} // committed by an earlier push
	}
	if err := n.appendChunked(req.RB, chunkSeen, seenBlob); err != nil {
		return adminResp{Err: fmt.Sprintf("import: %v", err)}
	}
	if len(img) > 0 {
		if err := n.appendChunked(req.RB, chunkEvents, img); err != nil {
			return adminResp{Err: fmt.Sprintf("import: %v", err)}
		}
	}
	if err := n.WAL().AppendDurable(encodeRB(recCommit, req.RB), false); err != nil {
		return adminResp{Err: fmt.Sprintf("import: %v", err)}
	}
	if n.stageDelay > 0 {
		time.Sleep(n.stageDelay) // test hook: widen the kill window
	}
	n.openRB.commit(n.Store(), req.RB, img, seen, true)
	n.importedEvents.Add(uint64(events))
	n.rebalanceBytes.Add(uint64(len(img)))
	n.recordHandoffSpan(req.RB, start, events, handoffImport)
	return adminResp{OK: true}
}

// Handoff span roles (Span.Detail).
const (
	handoffSource = 0 // mark: capture on the old owner
	handoffImport = 1 // import: durable apply on the new owner
)

// recordHandoffSpan records a rebalance-handoff span. Handoffs move
// record images, not sequenced batches, so no context rides the wire; instead both
// sides derive the same trace ID from the transfer number, and a trace
// query for it shows the capture and the import as siblings.
func (n *ShardNode) recordHandoffSpan(rb uint64, start int64, events, role int) {
	trace.Record(trace.Span{
		TraceID: trace.HandoffTraceID(rb),
		SpanID:  trace.Default.NewSpanID(),
		Stage:   trace.StageHandoff,
		Start:   start,
		End:     trace.Now(),
		Seq:     rb,
		Shard:   n.ID,
		Events:  uint32(events),
		Detail:  uint32(role),
	})
}

// handleClose logs transfer rb's fence or release (tag) and applies it
// to the transfer table. A fence leaves later arrivals in the moved
// slots: they were not captured, and survive as misplaced-but-queryable
// events the fan-out merge finds.
func (n *ShardNode) handleClose(req *adminReq, tag byte) adminResp {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.openRB[req.RB] == nil {
		return adminResp{OK: true} // already closed or never opened here
	}
	if err := n.WAL().AppendDurable(encodeRB(tag, req.RB), false); err != nil {
		return adminResp{Err: fmt.Sprintf("%s: %v", req.Op, err)}
	}
	if tag == recFence {
		n.fencedEvents.Add(uint64(n.openRB.fence(n.Store(), req.RB)))
	} else {
		n.openRB.release(req.RB)
	}
	return adminResp{OK: true}
}

// adminCall performs one request against a shard admin endpoint. A
// refusal is returned with the response: the shard answered.
func adminCall(addr string, req *adminReq, timeout time.Duration) (*adminResp, error) {
	resp, err := callJSON[adminResp](addr, req, timeout)
	if err == nil && !resp.OK {
		err = fmt.Errorf("fabric: %s: %s", req.Op, resp.Err)
	}
	return resp, err
}
