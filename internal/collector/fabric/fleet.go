package fabric

import (
	"cmp"
	"encoding/json"
	"net/http"
	"slices"
	"strings"
	"time"
)

// The fleet health plane: the coordinator scrapes every member shard's
// admin status op and serves the merged view on /fleet — per-shard
// liveness, epoch, admission state, WAL lag, rebalance progress, and the
// shards' histogram-bucket trace exemplars merged into one worst-first
// list. One request answers "is the fabric healthy, and if not, which
// trace do I pull".

// FleetShard is one shard's row in a fleet report.
type FleetShard struct {
	ID    uint32 `json:"id"`
	Admin string `json:"admin"`
	// Alive reports whether the shard answered its status scrape within
	// the deadline. A dead shard keeps its row — the gap is the signal.
	Alive bool   `json:"alive"`
	Err   string `json:"err,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	// OpenTransfers lists rebalance transfer IDs still open on the node.
	OpenTransfers []uint64     `json:"open_transfers,omitempty"`
	Health        *ShardHealth `json:"health,omitempty"`
}

// FleetExemplar is one shard's histogram-bucket exemplar in the merged
// fleet list.
type FleetExemplar struct {
	Shard   uint32  `json:"shard"`
	Metric  string  `json:"metric"`
	ValueUs float64 `json:"value_us"`
	Trace   string  `json:"trace"`
}

// FleetReport is the coordinator's merged view of the fabric.
type FleetReport struct {
	Epoch uint64 `json:"epoch"`
	// Pending names the phase ("staging" or "publish") of an unresolved
	// rebalance, empty when membership is settled.
	Pending string `json:"pending,omitempty"`
	// Healthy is the one-bit answer: no rebalance is pending, and every
	// member answered, agrees on the published epoch, has no open
	// transfers, admits at the ok rung and has no poisoned WAL.
	Healthy bool         `json:"healthy"`
	Shards  []FleetShard `json:"shards"`
	// Exemplars merges every shard's bucket exemplars, worst first (the
	// list is capped; the per-shard rows keep the full sets).
	Exemplars []FleetExemplar `json:"exemplars,omitempty"`
}

// maxFleetExemplars caps the merged worst-first exemplar list.
const maxFleetExemplars = 32

// PendingPhase returns the phase of the unresolved rebalance ("staging"
// or "publish"), or "" when membership is settled.
func (c *Coordinator) PendingPhase() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.st.Pending == nil {
		return ""
	}
	return c.st.Pending.Phase
}

// FleetStatus scrapes every member shard's admin status (concurrently,
// bounded by timeout each) and merges the fabric view.
func (c *Coordinator) FleetStatus(timeout time.Duration) FleetReport {
	cfg := c.Config()
	rep := FleetReport{Epoch: cfg.Epoch, Pending: c.PendingPhase()}
	rep.Shards, _ = fanOut(cfg.Shards, func(s ShardInfo) (FleetShard, error) {
		row := FleetShard{ID: s.ID, Admin: s.Admin}
		resp, err := adminCall(s.Admin, &adminReq{Op: "status"}, timeout)
		if err != nil {
			row.Err = err.Error()
			return row, nil // a dead shard keeps its row
		}
		row.Alive, row.Epoch, row.OpenTransfers, row.Health = true, resp.Epoch, resp.RBs, resp.Health
		return row, nil
	})

	rep.Healthy = rep.Pending == ""
	for i := range rep.Shards {
		row := &rep.Shards[i]
		// A shard's epoch is the last config epoch applied to it; a
		// bootstrapped member that never saw a rebalance legitimately
		// reports 0, so only a non-zero disagreement flags divergence.
		if !row.Alive || (row.Epoch != 0 && row.Epoch != rep.Epoch) || len(row.OpenTransfers) > 0 {
			rep.Healthy = false
		}
		if h := row.Health; h != nil {
			if h.Admission != "ok" {
				rep.Healthy = false
			}
			// A poisoned WAL is the loudest unhealth: the shard refuses
			// ingest until the disk is fixed and the log reopened.
			if h.Durability != "" && h.Durability != "ok" {
				rep.Healthy = false
			}
			for _, ex := range h.Exemplars {
				rep.Exemplars = append(rep.Exemplars, FleetExemplar{
					Shard: row.ID, Metric: ex.Metric, ValueUs: ex.ValueUs, Trace: ex.Trace})
			}
		}
	}
	slices.SortFunc(rep.Exemplars, func(a, b FleetExemplar) int {
		return cmp.Or(cmp.Compare(b.ValueUs, a.ValueUs), cmp.Compare(a.Shard, b.Shard), strings.Compare(a.Metric, b.Metric))
	})
	if len(rep.Exemplars) > maxFleetExemplars {
		rep.Exemplars = rep.Exemplars[:maxFleetExemplars]
	}
	return rep
}

// FleetHandler serves the coordinator's fleet report as indented JSON —
// mounted as the /fleet page beside /metrics on the coordinator daemon.
// timeout bounds each shard scrape per request.
func FleetHandler(c *Coordinator, timeout time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rep := c.FleetStatus(timeout)
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(&rep)
	})
}
