package fabric

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"netseer/internal/collector"
	"netseer/internal/faultfs"
	"netseer/internal/obs"
)

// transfer is one source→destination slot handoff inside a rebalance.
type transfer struct {
	RB     uint64 `json:"rb"`
	Source uint32 `json:"source"`
	Dest   uint32 `json:"dest"`
	Mask   uint64 `json:"mask"`
}

// pendingRebalance is the coordinator's durable two-phase record. The
// phase transition staging→publish is the cutover decision: a
// coordinator that restarts in "staging" aborts (destinations fence,
// sources release — the old epoch stands), one that restarts in
// "publish" completes (configs apply, sources fence, destinations
// release — the new epoch stands). Both resolutions are idempotent, so
// crashing during resolution just resolves again.
type pendingRebalance struct {
	Phase     string     `json:"phase"` // "staging" | "publish"
	Target    Config     `json:"target"`
	Transfers []transfer `json:"transfers"`
	// Removed lists shards present in the old config but not the target
	// (leave rebalances); they receive fences but no config apply.
	Removed []ShardInfo `json:"removed,omitempty"`
}

// coordState is everything the coordinator persists.
type coordState struct {
	Current Config            `json:"current"`
	Pending *pendingRebalance `json:"pending,omitempty"`
}

// CoordinatorOptions configures StartCoordinator.
type CoordinatorOptions struct {
	// StatePath is the durable state file (created on first start).
	StatePath string
	// ListenAddr serves the coordinator line protocol.
	ListenAddr string
	// Bootstrap seeds epoch 1 when no state file exists yet. Ignored on
	// restart.
	Bootstrap []ShardInfo
	// OpTimeout bounds one shard admin call (default 10s).
	OpTimeout time.Duration
	// FS is the filesystem the state file is read from and written to
	// (default faultfs.OS).
	FS faultfs.FS
}

// Coordinator owns ring membership: it computes epoch-stamped configs,
// drives rebalances through the mark/import/fence/release protocol, and
// persists a two-phase record so its own crash at any point resolves to
// exactly one side of the cutover.
type Coordinator struct {
	statePath string
	fs        faultfs.FS
	svc       *collector.Service
	opTimeout time.Duration

	mu        sync.Mutex
	st        coordState
	closed    bool
	resolving bool
	wg        sync.WaitGroup

	rebalances obs.Counter
}

// StartCoordinator loads (or bootstraps) the coordinator state and
// starts serving. A pending rebalance found in the state file is
// resolved in the background — membership changes are refused until it
// lands, config reads are served throughout.
func StartCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.OpTimeout <= 0 {
		opts.OpTimeout = 10 * time.Second
	}
	if opts.FS == nil {
		opts.FS = faultfs.OS
	}
	c := &Coordinator{statePath: opts.StatePath, fs: opts.FS, opTimeout: opts.OpTimeout}
	data, err := faultfs.ReadFile(opts.FS, opts.StatePath)
	switch {
	case err == nil:
		if err := json.Unmarshal(data, &c.st); err != nil {
			return nil, fmt.Errorf("fabric: corrupt coordinator state: %w", err)
		}
	case errors.Is(err, os.ErrNotExist):
		c.st.Current = Config{Epoch: 1, Shards: opts.Bootstrap, Slots: AssignSlots(opts.Bootstrap)}
		if err := c.persistLocked(); err != nil {
			return nil, err
		}
	default:
		return nil, err
	}
	if c.svc, err = collector.Listen(opts.ListenAddr, nil); err != nil {
		return nil, err
	}
	if c.st.Pending != nil {
		c.resolving = true
		c.wg.Add(1)
		go c.resolveLoop()
	}
	c.svc.Start(nil, serveJSON(c.handle))
	return c, nil
}

// RegisterMetrics exposes the coordinator's instruments on r: the
// rebalance counter and the published epoch.
func (c *Coordinator) RegisterMetrics(r *obs.Registry) {
	r.RegisterCounter(obs.MFabricRebalances, &c.rebalances)
	r.Func(obs.MFabricEpoch, func() float64 {
		c.mu.Lock()
		defer c.mu.Unlock()
		return float64(c.st.Current.Epoch)
	})
}

// Addr returns the coordinator's listening address.
func (c *Coordinator) Addr() string { return c.svc.Addr() }

// Config returns the currently published ring config.
func (c *Coordinator) Config() Config {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Current
}

// Close stops serving and closes every client connection. A pending
// rebalance stays in the state file for the next start to resolve.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	c.mu.Unlock()
	err := c.svc.Close()
	c.wg.Wait()
	return err
}

// persistLocked writes the state file durably. Callers hold c.mu.
func (c *Coordinator) persistLocked() error {
	data, err := json.MarshalIndent(&c.st, "", "  ")
	if err != nil {
		return err
	}
	if err := c.fs.MkdirAll(filepath.Dir(c.statePath), 0o755); err != nil {
		return err
	}
	return faultfs.ReplaceFile(c.fs, c.statePath, data)
}

// call performs one admin op against a shard, retrying transient
// failures; protocol-level rejections are returned immediately.
func (c *Coordinator) call(addr string, req *adminReq) (*adminResp, error) {
	var lastErr error
	for attempt := 0; attempt < 5; attempt++ {
		resp, err := adminCall(addr, req, c.opTimeout)
		if err == nil {
			return resp, nil
		}
		if resp != nil {
			return resp, err // the shard answered: retrying won't change its mind
		}
		lastErr = err
		c.mu.Lock()
		closed := c.closed
		c.mu.Unlock()
		if closed {
			break
		}
		time.Sleep(time.Duration(100*(attempt+1)) * time.Millisecond)
	}
	return nil, lastErr
}

// shardAdmin looks an admin address up in old or target membership.
func (c *Coordinator) shardAdmin(p *pendingRebalance, id uint32) (string, error) {
	if s, ok := p.Target.Shard(id); ok {
		return s.Admin, nil
	}
	for _, s := range p.Removed {
		if s.ID == id {
			return s.Admin, nil
		}
	}
	c.mu.Lock()
	cur := c.st.Current
	c.mu.Unlock()
	if s, ok := cur.Shard(id); ok {
		return s.Admin, nil
	}
	return "", fmt.Errorf("fabric: shard %d in no membership view", id)
}

// Join adds a shard: stage the slot ranges it gains, then publish the
// new epoch. Returns the published config.
func (c *Coordinator) Join(info ShardInfo) (Config, error) {
	return c.propose(func(cur *Config) (*pendingRebalance, error) {
		if _, ok := cur.Shard(info.ID); ok {
			return nil, fmt.Errorf("fabric: shard %d already a member", info.ID)
		}
		shards := append(append([]ShardInfo(nil), cur.Shards...), info)
		return planMoves(cur, shards, shards), nil
	})
}

// Leave starts removing a shard with the first of two rebalances: the
// demotion epoch keeps the shard in membership — it still serves queries
// and its admin surface — but assigns it no slots, handing the events of
// the slots it owned to their new owners. Removal finishes with Retire
// once every exporter has applied the demotion epoch. Splitting the
// removal is what keeps late arrivals safe: an event acked by the
// leaving shard after the demotion mark stays queryable (the shard is
// still in the fan-out) until Retire's full-drain mark captures it;
// removing the shard in one epoch would strand exactly those events.
func (c *Coordinator) Leave(id uint32) (Config, error) {
	return c.propose(func(cur *Config) (*pendingRebalance, error) {
		if _, ok := cur.Shard(id); !ok {
			return nil, fmt.Errorf("fabric: shard %d not a member", id)
		}
		if len(cur.Shards) == 1 {
			return nil, errors.New("fabric: cannot remove the last shard")
		}
		return planMoves(cur, append([]ShardInfo(nil), cur.Shards...), without(cur.Shards, id)), nil
	})
}

// Retire completes a shard's removal. The shard must already be demoted
// (own no slots — Leave does that) and every exporter must have applied
// the demotion epoch, so nothing new can land on it. The retire
// rebalance then drains every event still parked on the shard — owned
// by nobody there: late arrivals and misplaced leftovers from earlier
// crash windows alike — with one transfer per destination, masked by
// every slot that destination owns, and removes the shard from
// membership. A narrower mask would fence away nothing, but leave those
// events unreachable once the node shuts down.
func (c *Coordinator) Retire(id uint32) (Config, error) {
	return c.propose(func(cur *Config) (*pendingRebalance, error) {
		leaving, ok := cur.Shard(id)
		if !ok {
			return nil, fmt.Errorf("fabric: shard %d not a member", id)
		}
		for slot := 0; slot < NSlots; slot++ {
			if cur.Slots[slot] == id {
				return nil, fmt.Errorf("fabric: shard %d still owns slot %d; Leave first", id, slot)
			}
		}
		shards := without(cur.Shards, id)
		p := &pendingRebalance{
			Target:  Config{Epoch: cur.Epoch + 1, Shards: shards, Slots: AssignSlots(shards)},
			Removed: []ShardInfo{leaving},
		}
		masks := make(map[uint32]uint64)
		for slot := 0; slot < NSlots; slot++ {
			masks[p.Target.Slots[slot]] |= 1 << uint(slot)
		}
		for _, dest := range shards {
			if mask := masks[dest.ID]; mask != 0 {
				p.add(id, dest.ID, mask)
			}
		}
		return p, nil
	})
}

// without returns shards less the one with the given id, in a new slice.
func without(shards []ShardInfo, id uint32) []ShardInfo {
	var out []ShardInfo
	for _, s := range shards {
		if s.ID != id {
			out = append(out, s)
		}
	}
	return out
}

// planMoves plans the next epoch with the given members and the slots
// assigned over owners: one transfer per (source, destination) pair of
// MovedSlots.
func planMoves(cur *Config, members, owners []ShardInfo) *pendingRebalance {
	p := &pendingRebalance{Target: Config{Epoch: cur.Epoch + 1, Shards: members, Slots: AssignSlots(owners)}}
	for pair, mask := range MovedSlots(cur, &p.Target) {
		if _, ok := cur.Shard(pair[0]); ok { // else a bootstrap join: slots gain their first owner, nothing moves
			p.add(pair[0], pair[1], mask)
		}
	}
	return p
}

// add appends a transfer, numbered from the target epoch and its index.
func (p *pendingRebalance) add(source, dest uint32, mask uint64) {
	rb := p.Target.Epoch<<16 | uint64(len(p.Transfers))
	p.Transfers = append(p.Transfers, transfer{RB: rb, Source: source, Dest: dest, Mask: mask})
}

// propose makes one membership change: refused while another rebalance
// is pending, planned from the current config, persisted as a staging
// record and run.
func (c *Coordinator) propose(plan func(cur *Config) (*pendingRebalance, error)) (Config, error) {
	c.mu.Lock()
	if c.st.Pending != nil {
		c.mu.Unlock()
		return Config{}, errors.New("fabric: rebalance already pending")
	}
	p, err := plan(&c.st.Current)
	if err == nil {
		p.Phase = "staging"
		c.st.Pending = p
		if err = c.persistLocked(); err != nil {
			c.st.Pending = nil
		}
	}
	c.mu.Unlock()
	if err != nil {
		return Config{}, err
	}
	return c.runRebalance(p)
}

// runRebalance drives a freshly persisted staging record to completion:
// stage every transfer, flip the durable phase to publish (the cutover
// point), then complete. A staging failure aborts — the old epoch
// stands and no event moved observably.
func (c *Coordinator) runRebalance(p *pendingRebalance) (Config, error) {
	if err := c.stage(p); err != nil {
		if c.abort(p) != nil {
			c.retryResolve()
		}
		return Config{}, fmt.Errorf("fabric: rebalance aborted: %w", err)
	}
	c.mu.Lock()
	p.Phase = "publish"
	if err := c.persistLocked(); err != nil {
		p.Phase = "staging"
		c.mu.Unlock()
		if c.abort(p) != nil {
			c.retryResolve()
		}
		return Config{}, fmt.Errorf("fabric: rebalance aborted: %w", err)
	}
	c.mu.Unlock()
	if err := c.complete(p); err != nil {
		c.retryResolve()
		return Config{}, err
	}
	return p.Target, nil
}

// retryResolve keeps resolving a stuck rebalance in the background: a
// shard that was unreachable while aborting or completing — SIGKILLed
// mid-handoff, say — is retried until it answers, restarts, or the
// coordinator closes. Membership stays frozen until the record resolves.
func (c *Coordinator) retryResolve() {
	c.mu.Lock()
	if c.resolving || c.closed || c.st.Pending == nil {
		c.mu.Unlock()
		return
	}
	c.resolving = true
	c.mu.Unlock()
	c.wg.Add(1)
	go c.resolveLoop()
}

// stage runs mark+import for every transfer: after it returns, each
// destination durably holds its range and the sources still serve it.
func (c *Coordinator) stage(p *pendingRebalance) error {
	for _, t := range p.Transfers {
		srcAddr, err := c.shardAdmin(p, t.Source)
		if err != nil {
			return err
		}
		dstAddr, err := c.shardAdmin(p, t.Dest)
		if err != nil {
			return err
		}
		mresp, err := c.call(srcAddr, &adminReq{Op: "mark", RB: t.RB, Mask: t.Mask})
		if err != nil {
			return fmt.Errorf("mark shard %d: %w", t.Source, err)
		}
		_, err = c.call(dstAddr, &adminReq{
			Op: "import", RB: t.RB, Events: mresp.Events, Seen: mresp.Seen,
		})
		if err != nil {
			return fmt.Errorf("import shard %d: %w", t.Dest, err)
		}
	}
	return nil
}

// complete publishes the target epoch: apply the config on every member,
// fence the sources, release the destinations, persist. Idempotent —
// restart resolution re-runs it verbatim.
func (c *Coordinator) complete(p *pendingRebalance) error {
	for _, s := range p.Target.Shards {
		if _, err := c.call(s.Admin, &adminReq{Op: "apply", Config: &p.Target}); err != nil {
			return fmt.Errorf("apply shard %d: %w", s.ID, err)
		}
	}
	for _, t := range p.Transfers {
		srcAddr, err := c.shardAdmin(p, t.Source)
		if err != nil {
			return err
		}
		if _, err := c.call(srcAddr, &adminReq{Op: "fence", RB: t.RB}); err != nil {
			return fmt.Errorf("fence shard %d: %w", t.Source, err)
		}
		dstAddr, err := c.shardAdmin(p, t.Dest)
		if err != nil {
			return err
		}
		if _, err := c.call(dstAddr, &adminReq{Op: "release", RB: t.RB}); err != nil {
			return fmt.Errorf("release shard %d: %w", t.Dest, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Current = p.Target
	c.st.Pending = nil
	c.rebalances.Inc()
	return c.persistLocked()
}

// abort rolls a staging rebalance back: fence the destinations (dropping
// whatever they imported), release the sources (which never stopped
// serving), keep the old epoch.
func (c *Coordinator) abort(p *pendingRebalance) error {
	for _, t := range p.Transfers {
		if dstAddr, err := c.shardAdmin(p, t.Dest); err == nil {
			if _, err := c.call(dstAddr, &adminReq{Op: "fence", RB: t.RB}); err != nil {
				return fmt.Errorf("abort-fence shard %d: %w", t.Dest, err)
			}
		}
		if srcAddr, err := c.shardAdmin(p, t.Source); err == nil {
			if _, err := c.call(srcAddr, &adminReq{Op: "release", RB: t.RB}); err != nil {
				return fmt.Errorf("abort-release shard %d: %w", t.Source, err)
			}
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.st.Pending = nil
	c.rebalances.Inc()
	return c.persistLocked()
}

// resolveLoop finishes a rebalance found pending at startup, retrying
// until the shards answer: staging aborts, publish completes.
func (c *Coordinator) resolveLoop() {
	defer c.wg.Done()
	defer func() {
		c.mu.Lock()
		c.resolving = false
		c.mu.Unlock()
	}()
	for {
		c.mu.Lock()
		p, closed := c.st.Pending, c.closed
		c.mu.Unlock()
		if p == nil || closed {
			return
		}
		var err error
		if p.Phase == "publish" {
			err = c.complete(p)
		} else {
			err = c.abort(p)
		}
		if err == nil {
			return
		}
		time.Sleep(250 * time.Millisecond)
	}
}

// Resolved reports whether no rebalance is pending (tests poll it after
// a coordinator restart).
func (c *Coordinator) Resolved() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.st.Pending == nil
}

// Coordinator line protocol: one JSON object per line each way
// (jsonline.go).
//
//	{"op":"config"}            → {"ok":true,"config":{...}}
//	{"op":"status"}            → {"ok":true,"config":{...},"pending":"staging"}
//	{"op":"join","shard":{..}} → {"ok":true,"config":{...}}   (published)
//	{"op":"leave","id":N}      → {"ok":true,"config":{...}}   (demotes; retire after exporters catch up)
//	{"op":"retire","id":N}     → {"ok":true,"config":{...}}
type coordReq struct {
	Op    string     `json:"op"`
	Shard *ShardInfo `json:"shard,omitempty"`
	ID    uint32     `json:"id,omitempty"`
}

type coordResp struct {
	OK      bool    `json:"ok"`
	Err     string  `json:"err,omitempty"`
	Config  *Config `json:"config,omitempty"`
	Pending string  `json:"pending,omitempty"`
}

func (c *Coordinator) handle(req *coordReq) coordResp {
	var cfg Config
	var err error
	switch req.Op {
	case "config":
		cfg = c.Config()
	case "status":
		c.mu.Lock()
		cfg = c.st.Current
		pending := ""
		if c.st.Pending != nil {
			pending = c.st.Pending.Phase
		}
		c.mu.Unlock()
		return coordResp{OK: true, Config: &cfg, Pending: pending}
	case "join":
		if req.Shard == nil {
			return coordResp{Err: "join: missing shard"}
		}
		cfg, err = c.Join(*req.Shard)
	case "leave":
		cfg, err = c.Leave(req.ID)
	case "retire":
		cfg, err = c.Retire(req.ID)
	default:
		return coordResp{Err: fmt.Sprintf("unknown op %q", req.Op)}
	}
	if err != nil {
		return coordResp{Err: err.Error()}
	}
	return coordResp{OK: true, Config: &cfg}
}

// coordRequest performs one round-trip of the coordinator line protocol.
func coordRequest(addr string, req *coordReq, timeout time.Duration) (Config, error) {
	resp, err := callJSON[coordResp](addr, req, timeout)
	if err != nil {
		return Config{}, err
	}
	if !resp.OK || resp.Config == nil {
		return Config{}, fmt.Errorf("fabric: %s: %s", req.Op, resp.Err)
	}
	return *resp.Config, nil
}

// FetchConfig asks a coordinator for the current ring config — the
// entry point for exporters and fetquery.
func FetchConfig(addr string, timeout time.Duration) (Config, error) {
	return coordRequest(addr, &coordReq{Op: "config"}, timeout)
}

// RequestJoin asks the coordinator at addr to admit a shard. The timeout
// must cover the whole rebalance, not one packet exchange — the reply
// only comes once the new epoch is published (or the join aborted).
func RequestJoin(addr string, info ShardInfo, timeout time.Duration) (Config, error) {
	return coordRequest(addr, &coordReq{Op: "join", Shard: &info}, timeout)
}

// RequestLeave asks the coordinator to demote a shard: the published
// epoch reassigns its slots but keeps it in membership until
// RequestRetire. Same timeout caveat as RequestJoin.
func RequestLeave(addr string, id uint32, timeout time.Duration) (Config, error) {
	return coordRequest(addr, &coordReq{Op: "leave", ID: id}, timeout)
}

// RequestRetire finishes a demoted shard's removal: drain the leftovers,
// publish an epoch without it. Call only after every exporter has
// applied the demotion epoch. Same timeout caveat as RequestJoin.
func RequestRetire(addr string, id uint32, timeout time.Duration) (Config, error) {
	return coordRequest(addr, &coordReq{Op: "retire", ID: id}, timeout)
}
