package fabric

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"sort"
	"strings"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
)

// MergedResult is one fabric-wide query answer.
type MergedResult struct {
	Events []fevent.Event
	// Partial is set when at least one shard did not answer; the events
	// are then a correct view of the shards that did, not of the fabric.
	Partial bool
	// ShardsOK / ShardsTotal report fan-out coverage.
	ShardsOK, ShardsTotal int
}

// FanOutQuery runs one export query against every shard in cfg, merges
// the answers time-ordered, and deduplicates crash-window double copies
// with an owner-wins rule: for each exact event identity (every
// wire-visible field, timestamp included), copies on the slot's owner
// shard are canonical, and a non-owner shard's copies are suppressed up
// to the owner's count — they are the unfenced (or unaborted) side of a
// handoff whose other side already holds the same events. Copies beyond
// the owner's count, and identities the owner lacks entirely, are
// misplaced uniques parked by a re-route or a pre-fence arrival; they
// are real events and survive the merge. filterArgs is the query
// argument string ("switch=3 type=drop"), empty for everything.
func FanOutQuery(cfg Config, filterArgs string, timeout time.Duration) MergedResult {
	res := MergedResult{ShardsTotal: len(cfg.Shards)}
	merged := make(map[fevent.Event]map[uint32]int) // copies of an identity on each shard
	for _, s := range cfg.Shards {
		evs, err := queryShardExport(s.Query, filterArgs, timeout)
		if err != nil {
			res.Partial = true
			continue
		}
		res.ShardsOK++
		for _, e := range evs {
			sc := merged[e]
			if sc == nil {
				sc = make(map[uint32]int)
				merged[e] = sc
			}
			sc[s.ID]++
		}
	}
	for e, per := range merged {
		owner := cfg.Slots[SlotOf(e.SwitchID, e.Flow)]
		m := per[owner]
		total := m
		for id, n := range per {
			if id != owner && n > m {
				total += n - m
			}
		}
		for i := 0; i < total; i++ {
			res.Events = append(res.Events, e)
		}
	}
	sort.Slice(res.Events, func(i, j int) bool {
		a, b := &res.Events[i], &res.Events[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.SwitchID != b.SwitchID {
			return a.SwitchID < b.SwitchID
		}
		var ra, rb [fevent.RecordLen]byte
		return bytes.Compare(a.AppendRecord(ra[:0]), b.AppendRecord(rb[:0])) < 0
	})
	return res
}

// MergedTrace is one fabric-wide trace assembly.
type MergedTrace struct {
	Spans []trace.SpanJSON
	// Partial is set when at least one shard did not answer; the trace is
	// then a correct view of the hops the answering shards recorded, not
	// of the whole fabric.
	Partial bool
	// ShardsOK / ShardsTotal report fan-out coverage.
	ShardsOK, ShardsTotal int
}

// FanOutTrace assembles one trace across every shard in cfg: each shard
// answers the query protocol's "trace <id>" verb with the spans its own
// recorder holds, and the union — deduplicated by span ID (a re-routed
// batch can leave the same exporter-side span observable through two
// shards' views) — is sorted into the canonical pipeline order. Exporter-
// and switch-side spans live in the exporting process, not in any shard,
// so callers that run inside the exporter (fetquery does not) may merge
// trace.Spans(id) in with extra.
func FanOutTrace(cfg Config, id uint64, extra []trace.Span, timeout time.Duration) MergedTrace {
	res := MergedTrace{ShardsTotal: len(cfg.Shards)}
	seen := make(map[string]bool)
	var spans []trace.Span
	for _, sp := range extra {
		spans = append(spans, sp)
		seen[trace.FormatID(sp.SpanID)] = true
	}
	var remote []trace.SpanJSON
	for _, s := range cfg.Shards {
		js, err := queryShardTrace(s.Query, id, timeout)
		if err != nil {
			res.Partial = true
			continue
		}
		res.ShardsOK++
		for _, j := range js {
			if seen[j.Span] {
				continue
			}
			seen[j.Span] = true
			remote = append(remote, j)
		}
	}
	for _, sp := range spans {
		remote = append(remote, sp.JSON())
	}
	sort.Slice(remote, func(i, j int) bool {
		if remote[i].Start != remote[j].Start {
			return remote[i].Start < remote[j].Start
		}
		if remote[i].Stage != remote[j].Stage {
			return remote[i].Stage < remote[j].Stage
		}
		return remote[i].Span < remote[j].Span
	})
	res.Spans = remote
	return res
}

// queryShardTrace runs one "trace <id>" query against a shard query
// endpoint and decodes the JSON span lines.
func queryShardTrace(addr string, id uint64, timeout time.Duration) ([]trace.SpanJSON, error) {
	var out []trace.SpanJSON
	err := collector.QueryLines(addr, "trace "+trace.FormatID(id), timeout, func(line string) error {
		var j trace.SpanJSON
		if err := json.Unmarshal([]byte(line), &j); err != nil {
			return err
		}
		out = append(out, j)
		return nil
	})
	return out, err
}

// queryShardExport runs one "export" query against a shard query
// endpoint and decodes its base64 batch images.
func queryShardExport(addr, filterArgs string, timeout time.Duration) ([]fevent.Event, error) {
	var out []fevent.Event
	err := collector.QueryLines(addr, strings.TrimSpace("export "+filterArgs), timeout, func(line string) error {
		img, err := base64.StdEncoding.DecodeString(line)
		if err == nil {
			out, err = fevent.DecodeBatches(out, img)
		}
		return err
	})
	return out, err
}
