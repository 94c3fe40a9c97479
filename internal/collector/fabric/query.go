package fabric

import (
	"cmp"
	"encoding/base64"
	"encoding/json"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
)

// Coverage reports how many shards a fan-out read reached.
type Coverage struct {
	// Partial is set when at least one shard did not answer; the answer
	// is then a correct view of the shards that did, not of the fabric.
	Partial bool
	// ShardsOK / ShardsTotal report fan-out coverage.
	ShardsOK, ShardsTotal int
}

// fanOut asks every shard at once, one goroutine a shard, and returns the
// answers in shard order, the zero T where ask failed. ask bounds its call
// by the read's timeout, so any number of silent shards cost one timeout.
func fanOut[T any](shards []ShardInfo, ask func(ShardInfo) (T, error)) ([]T, Coverage) {
	answers := make([]T, len(shards))
	var ok atomic.Int64
	var wg sync.WaitGroup
	for i, s := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if a, err := ask(s); err == nil {
				answers[i] = a
				ok.Add(1)
			}
		}()
	}
	wg.Wait()
	n := int(ok.Load())
	return answers, Coverage{Partial: n < len(shards), ShardsOK: n, ShardsTotal: len(shards)}
}

// MergedResult is one fabric-wide query answer.
type MergedResult struct {
	Events []fevent.Event
	Coverage
}

// FanOutQuery runs one export query against every shard in cfg, merges
// the answers time-ordered, and deduplicates crash-window double copies
// with an owner-wins rule: for each event identity (fevent.Identity),
// copies on the slot's owner shard are canonical, and a non-owner shard's
// copies are suppressed up to the owner's count — they are the unfenced
// (or unaborted) side of a handoff whose other side already holds the
// same events. Copies beyond the owner's count, and identities the owner
// lacks entirely, are misplaced uniques parked by a re-route or a
// pre-fence arrival; they are real events and survive the merge.
// filterArgs is the query argument string ("switch=3 type=drop"), empty
// for everything.
func FanOutQuery(cfg Config, filterArgs string, timeout time.Duration) MergedResult {
	req := strings.TrimSpace("export " + filterArgs)
	answers, cov := fanOut(cfg.Shards, func(s ShardInfo) (copies []eventCopy, err error) {
		err = collector.QueryLines(s.Query, req, timeout, func(line string) error {
			img, err := base64.StdEncoding.DecodeString(line)
			if err == nil {
				copies, err = appendCopies(copies, s.ID, img)
			}
			return err
		})
		return copies, err
	})
	return MergedResult{Events: merge(&cfg, slices.Concat(answers...)), Coverage: cov}
}

// eventCopy is one shard's stored copy of an event.
type eventCopy struct {
	id    fevent.Identity
	shard uint32
}

// appendCopies appends to dst a copy of each event of shard's image img.
func appendCopies(dst []eventCopy, shard uint32, img []byte) ([]eventCopy, error) {
	for len(img) > 0 {
		sw, ts, recs, rest, err := fevent.SplitBatch(img)
		if err != nil {
			return dst, err
		}
		for ; len(recs) > 0; recs = recs[fevent.RecordLen:] {
			dst = append(dst, eventCopy{fevent.IdentityOf(sw, ts, recs), shard})
		}
		img = rest
	}
	return dst, nil
}

// merge applies FanOutQuery's owner-wins rule to every shard's copies:
// one sort by (identity, shard) puts each shard's copies of an identity
// side by side, in the output's time order, and each run decodes once.
func merge(cfg *Config, copies []eventCopy) []fevent.Event {
	slices.SortFunc(copies, func(a, b eventCopy) int {
		if c := a.id.Compare(&b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.shard, b.shard)
	})
	out := make([]fevent.Event, 0, len(copies))
	for len(copies) > 0 {
		n := 1
		for n < len(copies) && copies[n].id == copies[0].id {
			n++
		}
		run, e := copies[:n], copies[0].id.Event()
		owner, m := cfg.Slots[SlotOf(e.SwitchID, e.Flow)], 0
		for _, c := range run {
			if c.shard == owner {
				m++
			}
		}
		keep := m
		for i, c := range run {
			if c.shard != owner && i >= m && run[i-m].shard == c.shard { // a copy past its shard's m-th
				keep++
			}
		}
		for ; keep > 0; keep-- {
			out = append(out, e)
		}
		copies = copies[n:]
	}
	return out
}

// MergedTrace is one fabric-wide trace assembly.
type MergedTrace struct {
	Spans []trace.SpanJSON
	Coverage
}

// FanOutTrace assembles one trace across every shard in cfg: each shard
// answers the query protocol's "trace <id>" verb with the spans its own
// recorder holds, and the union is sorted into the canonical pipeline
// order, one span an ID: a re-routed batch can leave the same
// exporter-side span observable through two shards' views, and the
// stable sort keeps the first shard's.
func FanOutTrace(cfg Config, id uint64, timeout time.Duration) MergedTrace {
	answers, cov := fanOut(cfg.Shards, func(s ShardInfo) (spans []trace.SpanJSON, err error) {
		err = collector.QueryLines(s.Query, "trace "+trace.FormatID(id), timeout, func(line string) error {
			var j trace.SpanJSON
			err := json.Unmarshal([]byte(line), &j)
			spans = append(spans, j)
			return err
		})
		return spans, err
	})
	spans := slices.Concat(answers...)
	slices.SortStableFunc(spans, func(a, b trace.SpanJSON) int {
		return cmp.Or(cmp.Compare(a.Start, b.Start), strings.Compare(a.Stage, b.Stage), strings.Compare(a.Span, b.Span))
	})
	spans = slices.CompactFunc(spans, func(a, b trace.SpanJSON) bool { return a.Span == b.Span })
	return MergedTrace{Spans: spans, Coverage: cov}
}
