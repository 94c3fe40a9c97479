package fabric

import (
	"strconv"
	"sync"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
)

// Router is the exporter-side half of the fabric: a core.EventSink that
// splits each batch by slot owner and ships every piece through that
// shard's own reliable multi-endpoint client. Sequence numbers — and
// therefore (switch, seq) dedup — are per shard client, so retransmits
// within one shard behave exactly as in the single-collector channel.
//
// On a config change, every client of a removed shard — its own and any
// drain client aimed at it — is taken over: its pending batches are
// re-delivered whole (never re-split) to the new owner of their first
// event's slot through PreserveSeq drain clients of a lineage the
// takeover draws, one per destination. Keeping the original sequence
// numbers means a batch the old shard had stored-but-not-acked
// deduplicates at the new owner against the seen set the handoff
// shipped — the epoch fence that makes re-routing unable to
// double-deliver. A lineage holds one taken-over client's batches, so
// each drain client carries one ascending sequence space, as a
// cumulative ack needs. Events whose slot moved while their shard
// survives simply land misplaced and stay queryable through the fan-out
// merge.
type Router struct {
	ccfg collector.ClientConfig

	mu       sync.Mutex
	cfg      Config
	clients  map[clientKey]*collector.Client
	lineages uint64 // drawn so far
	closed   bool
	stop     chan struct{}
	wg       sync.WaitGroup

	reg      *obs.Registry
	routed   map[uint32]*obs.Counter
	rerouted obs.Counter
	partial  obs.Counter // unroutable events (no owner in config)
}

// clientKey names one delivery client: lineage 0 is the shard's own
// client, which assigns fresh sequence numbers; any other lineage is a
// takeover's PreserveSeq drain client.
type clientKey struct {
	shard   uint32
	lineage uint64
}

// NewRouter creates a router for the given initial config. ccfg tunes
// every per-shard client.
func NewRouter(cfg Config, ccfg collector.ClientConfig) *Router {
	r := &Router{
		ccfg:    ccfg,
		cfg:     cfg,
		clients: make(map[clientKey]*collector.Client),
		routed:  make(map[uint32]*obs.Counter),
		stop:    make(chan struct{}),
	}
	return r
}

// RegisterMetrics exposes the routing instruments on reg. Per-shard
// routed counters appear as shards are first routed to.
func (r *Router) RegisterMetrics(reg *obs.Registry) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.reg = reg
	reg.RegisterCounter(obs.MFabricReroutedBatches, &r.rerouted)
	reg.Func(obs.MFabricEpoch, func() float64 {
		r.mu.Lock()
		defer r.mu.Unlock()
		return float64(r.cfg.Epoch)
	})
}

// Epoch returns the config epoch the router is operating under.
func (r *Router) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.cfg.Epoch
}

// clientLocked returns (creating if needed) the delivery client of a
// shard's lineage. Callers hold r.mu.
func (r *Router) clientLocked(s ShardInfo, lineage uint64) *collector.Client {
	k := clientKey{s.ID, lineage}
	if c, ok := r.clients[k]; ok {
		return c
	}
	ccfg := r.ccfg
	ccfg.PreserveSeq = lineage != 0
	ccfg.Endpoints = s.Ingest[1:]
	c := collector.NewClientConfig(s.Ingest[0], ccfg)
	r.clients[k] = c
	if r.reg != nil && lineage == 0 {
		ctr := &obs.Counter{}
		r.routed[s.ID] = ctr
		r.reg.RegisterCounter(obs.MFabricRoutedBatches, ctr,
			obs.L("shard", strconv.Itoa(int(s.ID))))
	}
	return c
}

// Deliver implements core.EventSink: split the batch by slot owner and
// deliver each piece to its shard. Events with no owner (config without
// their slot's shard — cannot happen with a validated config) are
// dropped and counted. A client's Deliver only enqueues, so the pieces
// are handed over under r.mu: no config change can take a client over
// between its choice and its delivery.
func (r *Router) Deliver(b *fevent.Batch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	parts := make(map[uint32][]fevent.Event)
	for i := range b.Events {
		e := &b.Events[i]
		owner := r.cfg.Slots[SlotOf(e.SwitchID, e.Flow)]
		parts[owner] = append(parts[owner], *e)
	}
	for id, evs := range parts {
		s, ok := r.cfg.Shard(id)
		if !ok {
			r.partial.Add(uint64(len(evs)))
			continue
		}
		// Each per-shard piece inherits the parent batch's trace context,
		// so one sampled CEBP batch that splits across shards assembles
		// into one trace with parallel shard-side branches.
		r.clientLocked(s, 0).Deliver(&fevent.Batch{SwitchID: b.SwitchID, Timestamp: b.Timestamp, Events: evs, Trace: b.Trace})
		if ctr := r.routed[id]; ctr != nil {
			ctr.Inc()
		}
	}
}

// ApplyConfig switches the router to a newer epoch. Every client of a
// shard no longer in membership is taken over and its pending batches
// re-routed whole to the new owner of their first event's slot.
func (r *Router) ApplyConfig(cfg Config) {
	r.mu.Lock()
	if r.closed || cfg.Epoch <= r.cfg.Epoch {
		r.mu.Unlock()
		return
	}
	r.cfg = cfg
	var retired []*collector.Client
	for k, c := range r.clients {
		if _, ok := cfg.Shard(k.shard); !ok {
			retired = append(retired, c)
			delete(r.clients, k)
			delete(r.routed, k.shard)
		}
	}
	r.mu.Unlock()

	for _, c := range retired {
		batches := c.Takeover() // waits out the client's sender: not under r.mu
		r.mu.Lock()
		r.lineages++
		for _, b := range batches {
			if len(b.Events) == 0 {
				continue
			}
			e := &b.Events[0]
			s, ok := r.cfg.Owner(SlotOf(e.SwitchID, e.Flow))
			if !ok {
				continue
			}
			if b.Trace.Sampled() {
				// The re-route is a real hop of the batch's journey:
				// record it (Detail = the epoch) and chain the parent so
				// the destination shard's ingest span hangs under it.
				sp := trace.Begin(b.Trace, trace.StageReroute)
				sp.SwitchID = b.SwitchID
				sp.Seq = b.Seq
				sp.Shard = s.ID
				sp.Events = uint32(len(b.Events))
				sp.Detail = uint32(r.cfg.Epoch)
				b.Trace.Parent = sp.SpanID
				trace.Finish(&sp)
			}
			r.clientLocked(s, r.lineages).Deliver(b)
			r.rerouted.Inc()
		}
		r.mu.Unlock()
	}
}

// WatchCoordinator polls the coordinator for config changes every
// interval until Close.
func (r *Router) WatchCoordinator(addr string, interval time.Duration) {
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				if cfg, err := FetchConfig(addr, 5*time.Second); err == nil {
					r.ApplyConfig(cfg)
				}
			}
		}
	}()
}

// Flush blocks until every routed batch is acked by its shard (or a
// client's flush deadline passes); the first error wins.
func (r *Router) Flush() error {
	r.mu.Lock()
	cs := r.clientsLocked()
	r.mu.Unlock()
	var first error
	for _, c := range cs {
		if err := c.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Close drains and closes every client.
func (r *Router) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	close(r.stop)
	cs := r.clientsLocked()
	r.mu.Unlock()
	r.wg.Wait()
	var first error
	for _, c := range cs {
		if err := c.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// clientsLocked lists every client. Callers hold r.mu.
func (r *Router) clientsLocked() []*collector.Client {
	cs := make([]*collector.Client, 0, len(r.clients))
	for _, c := range r.clients {
		cs = append(cs, c)
	}
	return cs
}
