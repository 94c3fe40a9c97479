package oracle

import (
	"fmt"
	"sort"
	"time"

	"netseer/internal/collector"
	"netseer/internal/dataplane"
	"netseer/internal/faultconn"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sketch"
)

// CheckResult is one invariant checker's outcome.
type CheckResult struct {
	Claim      string
	Checked    int // facts examined (ground-truth keys, events, batches…)
	Violations []string
}

// OK reports whether the checker passed.
func (c CheckResult) OK() bool { return len(c.Violations) == 0 }

// failf records one violation; past maxViolations it records only that
// more were elided.
func (c *CheckResult) failf(format string, args ...any) {
	if len(c.Violations) < maxViolations {
		c.Violations = append(c.Violations, fmt.Sprintf(format, args...))
	} else if len(c.Violations) == maxViolations {
		c.Violations = append(c.Violations, "… more violations elided")
	}
}

// Report holds every checker's outcome for one scenario.
type Report struct {
	Sc      Scenario
	Results []CheckResult
}

// OK reports whether every checker passed.
func (r *Report) OK() bool {
	for _, c := range r.Results {
		if !c.OK() {
			return false
		}
	}
	return true
}

// Violations flattens the failures, prefixed by claim name.
func (r *Report) Violations() []string {
	var out []string
	for _, c := range r.Results {
		for _, v := range c.Violations {
			out = append(out, c.Claim+": "+v)
		}
	}
	return out
}

// maxViolations bounds the failure detail per checker; past this the count
// matters, not another page of keys.
const maxViolations = 12

// blind reports whether a drop code is invisible to NetSeer by design
// (§3.7: failed ASIC/MMU destroy packets before any hook runs; only
// syslog self-checks can tell the operator).
func blind(c fevent.DropCode) bool {
	return c == fevent.DropASICFailure || c == fevent.DropMMUFailure
}

// silentDrop reports whether a flow event is a drop between devices, the
// class gap notification recovers (§3.3).
func silentDrop(k dataplane.FlowEventKey) bool {
	return k.Type == fevent.TypeDrop && (k.Code == fevent.DropInterSwitch || k.Code == fevent.DropInterCard)
}

// storedView indexes the collector store's contents for reconciliation.
type storedView struct {
	// stored holds the flow events of the four paper types, ACL denies
	// aside.
	stored map[dataplane.FlowEventKey]bool
	acl    map[dataplane.GTACLRule]uint16 // max stored count per (switch, rule)

	// Sketch-event indexes, keyed the same way the ground-truth ledgers
	// are so the sketch checker can reconcile them directly.
	hh    map[dataplane.GTSwitchFlow]uint16 // max stored heavy-hitter count
	churn map[dataplane.GTSwitchFlow]bool   // flows with any stored top-K churn
	spike map[dataplane.GTLinkWindow]uint16 // max stored spike count per link-window

	// maxCount is the highest stored count per key — the exact packet
	// total when the key's switch had zero evictions, a lower bound
	// otherwise.
	maxCount map[dataplane.FlowEventKey]uint16
	// seqs records each (switch, dedup-key)'s stored counts in delivery
	// order, for the fpelim duplicate check.
	seqs  map[swKey][]uint16
	order []swKey

	events []fevent.Event
}

type swKey struct {
	sw  uint16
	key fevent.Key
}

func newStoredView(store *collector.Store) *storedView {
	v := &storedView{
		stored:   make(map[dataplane.FlowEventKey]bool),
		acl:      make(map[dataplane.GTACLRule]uint16),
		hh:       make(map[dataplane.GTSwitchFlow]uint16),
		churn:    make(map[dataplane.GTSwitchFlow]bool),
		spike:    make(map[dataplane.GTLinkWindow]uint16),
		maxCount: make(map[dataplane.FlowEventKey]uint16),
		seqs:     make(map[swKey][]uint16),
	}
	v.events = store.Query(collector.Filter{})
	for i := range v.events {
		e := &v.events[i]
		sk := swKey{e.SwitchID, e.Key()}
		if _, seen := v.seqs[sk]; !seen {
			v.order = append(v.order, sk)
		}
		v.seqs[sk] = append(v.seqs[sk], e.Count)
		if e.Type == fevent.TypeDrop && e.DropCode == fevent.DropACLDeny {
			ak := dataplane.GTACLRule{SwitchID: e.SwitchID, Rule: e.ACLRule}
			if e.Count > v.acl[ak] {
				v.acl[ak] = e.Count
			}
			continue
		}
		k := dataplane.EventKey(e)
		switch e.Type {
		case fevent.TypeDrop, fevent.TypeCongestion, fevent.TypePause, fevent.TypePathChange:
			v.stored[k] = true
		case fevent.TypeHeavyHitter:
			fk := dataplane.GTSwitchFlow{SwitchID: e.SwitchID, Flow: e.Flow}
			if e.Count > v.hh[fk] {
				v.hh[fk] = e.Count
			}
		case fevent.TypeTopKChurn:
			v.churn[dataplane.GTSwitchFlow{SwitchID: e.SwitchID, Flow: e.Flow}] = true
		case fevent.TypeAggSpike:
			lk := dataplane.GTLinkWindow{SwitchID: e.SwitchID, Port: e.EgressPort, Window: e.Window}
			if e.Count > v.spike[lk] {
				v.spike[lk] = e.Count
			}
		}
		if e.Count > v.maxCount[k] {
			v.maxCount[k] = e.Count
		}
	}
	return v
}

// Check runs the four in-process invariant checkers (completeness,
// soundness, encoding, recovery) against one run's artifacts. The fifth
// (delivery) needs a real TCP channel; run it via CheckDelivery.
func Check(res *Result) *Report {
	v := newStoredView(res.Store)
	return &Report{
		Sc: res.Sc,
		Results: []CheckResult{
			checkCompleteness(res, v),
			checkSoundness(res, v),
			checkEncoding(res),
			checkRecovery(res, v),
			checkSketch(res, v),
		},
	}
}

// CheckAll runs every checker including the TCP delivery replay.
func CheckAll(res *Result) *Report {
	r := Check(res)
	r.Results = append(r.Results, CheckDelivery(res))
	return r
}

// checkCompleteness verifies claim 1 (§3.4 Algorithm 1, §3.3): zero false
// negatives. Every ground-truth flow event NetSeer can see must be
// covered by a stored event, and where the group cache had no evictions
// the stored packet counter must equal the ground-truth packet count
// exactly. Capacity-loss counters must be zero (the harness budgets them
// out) except ring overwrites, which relax only the inter-switch clause.
func checkCompleteness(res *Result, v *storedView) CheckResult {
	c := CheckResult{Claim: "completeness"}
	st := res.Stats
	if st.LostInternalPort != 0 || st.LostMMURedirect != 0 || st.LostStackOverflow != 0 {
		c.failf("capacity losses under unlimited budget: internalPort=%d mmuRedirect=%d stackOverflow=%d",
			st.LostInternalPort, st.LostMMURedirect, st.LostStackOverflow)
	}

	countExact := func(k dataplane.FlowEventKey, gtCount int) {
		if res.BySwitch[k.SwitchID].GroupEvictions != 0 || gtCount > 0xffff {
			// Evictions split the key across aggregation runs whose
			// intermediate finals are not reconstructible (fpelim
			// legitimately suppresses re-reports); the soundness checker
			// still bounds the stored count from above.
			return
		}
		if got := int(v.maxCount[k]); got != gtCount {
			c.failf("count mismatch (no evictions on sw %d): %v stored=%d truth=%d", k.SwitchID, k, got, gtCount)
		}
	}

	interSwitchTruth := 0
	for _, e := range res.GT.Events {
		k, n := e.Key, e.Packets
		if k.Type == fevent.TypeDrop && (blind(k.Code) || k.Code == fevent.DropACLDeny) {
			continue // blind by design; ACL denies are checked per rule below
		}
		c.Checked++
		switch {
		case k.Type == fevent.TypePathChange:
			if !v.stored[k] {
				c.failf("missed path change: %v", k)
			}
		case silentDrop(k):
			interSwitchTruth += n
			if res.BySwitch[k.SwitchID].LostRingOverwrite == 0 {
				if !v.stored[k] {
					c.failf("missed drop: %v ×%d (ring had no overwrites)", k, n)
				}
				countExact(k, n)
			}
		case !v.stored[k]:
			c.failf("missed %v: %v ×%d", k.Type, k, n)
		default:
			countExact(k, n)
		}
	}

	// Packet-level identity for silent drops: every lost packet is either
	// recovered from the ring or accounted as a ring overwrite.
	if got := int(st.InterSwitchFound + st.LostRingOverwrite); got != interSwitchTruth {
		c.failf("inter-switch packet identity: recovered=%d + overwritten=%d != truth=%d",
			st.InterSwitchFound, st.LostRingOverwrite, interSwitchTruth)
	}

	for ak, n := range res.GT.ACLDenies {
		c.Checked++
		want := n
		if want > 0xffff {
			want = 0xffff
		}
		if got := int(v.acl[ak]); got != want {
			c.failf("ACL rule %d on sw %d: stored count %d, truth %d", ak.Rule, ak.SwitchID, got, want)
		}
	}
	return c
}

// checkSoundness verifies claim 2 (§3.4, §3.6): every stored event
// corresponds to something that really happened — false positives only
// ever arise from group-cache collision churn, and fpelim removes all of
// them (no stored duplicate carries a non-advancing counter), so stored
// counts never exceed ground truth.
func checkSoundness(res *Result, v *storedView) CheckResult {
	c := CheckResult{Claim: "soundness"}
	counted := make(map[dataplane.FlowEventKey]bool)
	for i := range v.events {
		e := &v.events[i]
		c.Checked++
		switch e.Type {
		case fevent.TypeDrop, fevent.TypeCongestion, fevent.TypePause, fevent.TypePathChange:
			if e.Type == fevent.TypeDrop && blind(e.DropCode) {
				c.failf("event for a NetSeer-blind drop code stored: %v", e)
				continue
			}
			if e.Type == fevent.TypeDrop && e.DropCode == fevent.DropACLDeny {
				n := res.GT.ACLDenies[dataplane.GTACLRule{SwitchID: e.SwitchID, Rule: e.ACLRule}]
				if n == 0 {
					c.failf("phantom ACL report: rule %d on sw %d never denied anything", e.ACLRule, e.SwitchID)
				} else if int(e.Count) > n && n <= 0xffff {
					c.failf("ACL overcount: rule %d on sw %d count=%d truth=%d", e.ACLRule, e.SwitchID, e.Count, n)
				}
				continue
			}
			k := dataplane.EventKey(e)
			truth := res.GT.Lookup(k)
			if truth == nil {
				c.failf("phantom %v: %v", e.Type, e)
				continue
			}
			// A path change carries no packet count.
			if e.Type != fevent.TypePathChange && !counted[k] && int(v.maxCount[k]) > truth.Packets {
				counted[k] = true
				c.failf("%v overcount: %v stored=%d truth=%d", e.Type, k, v.maxCount[k], truth.Packets)
			}
		case fevent.TypeHeavyHitter, fevent.TypeTopKChurn:
			// Estimate/error bounds live in the sketch checker; soundness
			// only rejects reports for flows the switch never forwarded.
			if res.GT.FlowPkts[dataplane.GTSwitchFlow{SwitchID: e.SwitchID, Flow: e.Flow}] == 0 {
				c.failf("phantom sketch report: %v", e)
			}
		case fevent.TypeAggSpike:
			// Spikes aggregate per link-window; the flow field is always
			// zero and the (port, window) bin must have carried traffic.
			if e.Flow != (pkt.FlowKey{}) {
				c.failf("aggregate spike with non-zero flow: %v", e)
				continue
			}
			lk := dataplane.GTLinkWindow{SwitchID: e.SwitchID, Port: e.EgressPort, Window: e.Window}
			if res.GT.LinkWindowBytes[lk] == 0 {
				c.failf("phantom aggregate spike: %v", e)
			}
		default:
			c.failf("stored event with invalid type %d", e.Type)
		}
	}

	// fpelim effectiveness: a stored event whose counter did not advance
	// past its predecessor for the same identity is a §3.6 duplicate the
	// CPU should have removed. (Counter regressions are genuine new
	// aggregation episodes after an eviction, so only equality is a
	// duplicate.)
	for _, sk := range v.order {
		seq := v.seqs[sk]
		for i := 1; i < len(seq); i++ {
			if seq[i] == seq[i-1] {
				c.failf("unsuppressed duplicate report on sw %d: %v count=%d repeated", sk.sw, sk.key, seq[i])
				break
			}
		}
	}
	return c
}

// checkEncoding verifies claim 3 (§3.5–§3.6): every exported event
// round-trips through the 24-byte wire record bit-exactly, and its
// pre-computed data-plane hash matches a software recomputation.
func checkEncoding(res *Result) CheckResult {
	c := CheckResult{Claim: "encoding"}
	for _, b := range res.Batches {
		for i := range b.Events {
			e := &b.Events[i]
			c.Checked++
			if e.SwitchID != b.SwitchID {
				c.failf("event switch %d in batch from switch %d", e.SwitchID, b.SwitchID)
			}
			rec := e.AppendRecord(nil)
			if len(rec) != fevent.RecordLen {
				c.failf("record is %d bytes, want %d: %v", len(rec), fevent.RecordLen, e)
				continue
			}
			var back fevent.Event
			if err := back.DecodeRecord(rec); err != nil {
				c.failf("round-trip decode failed: %v (%v)", err, e)
				continue
			}
			back.SwitchID, back.Timestamp = e.SwitchID, e.Timestamp
			if back != *e {
				c.failf("round-trip mismatch: sent %+v, decoded %+v", *e, back)
			}
			if got := e.Flow.Hash(); e.Hash != got {
				c.failf("pre-computed hash %#x != recomputed %#x for %v", e.Hash, got, e)
			}
		}
	}
	return c
}

// checkRecovery verifies claim 4 (§3.3): gap-notification replay from the
// upstream ring buffer yields exactly the silently dropped packets'
// 5-tuples — as a set, recovered flows equal the ground-truth lost flows
// (exactly when nothing was overwritten; never anything extra otherwise),
// and per-packet accounting already holds via the completeness identity.
func checkRecovery(res *Result, v *storedView) CheckResult {
	c := CheckResult{Claim: "recovery"}
	for _, e := range res.GT.Events {
		if k := e.Key; silentDrop(k) {
			c.Checked++
			if res.Stats.LostRingOverwrite == 0 && !v.stored[k] {
				c.failf("silently dropped 5-tuple not recovered (no overwrites): %v", k)
			}
		}
	}
	for k := range v.stored {
		if silentDrop(k) && res.GT.Lookup(k) == nil {
			c.failf("recovered a 5-tuple that was never silently dropped: %v", k)
		}
	}
	// Gap detection accounting: every notification episode the trackers
	// raised was either recovered or counted as overwritten.
	if res.Stats.SeqGapsDetected > 0 && res.Stats.InterSwitchFound+res.Stats.LostRingOverwrite == 0 {
		c.failf("gaps detected (%d) but nothing recovered or accounted", res.Stats.SeqGapsDetected)
	}
	return c
}

// checkSketch verifies claim 6, the sketch detection family, differentially
// against the exact ground-truth ledgers. Every clause is deterministic —
// no probabilistic ε·N slack that a fuzzed scenario could legitimately
// exceed. The trick for the CMS bound: the *plain* sketch's final state is
// order-free (each cell is exactly the sum of the true counts of the flows
// hashing to it) and upper-bounds every intermediate conservative-update
// estimate of the same stream, so rebuilding it from GT.FlowPkts yields an
// exact per-flow estimate ceiling.
//
// Clauses:
//   - HH completeness: every flow whose true per-switch count reaches the
//     threshold has a stored heavy-hitter event (est ≥ true, so the
//     crossing is guaranteed; the first crossing always forwards).
//   - HH soundness: every stored heavy-hitter count is ≥ the threshold and
//     ≤ the plain-CMS ceiling rebuilt from ground truth.
//   - Top-K completeness: every flow with true count > N/K must appear in
//     stored churn events (space-saving residency guarantee + the Flush
//     snapshot).
//   - Churn soundness: count − err never exceeds the flow's true count
//     (the space-saving error invariant, end-to-end through the wire).
//   - Spike completeness + count: every (port, window) bin whose true byte
//     total reaches SpikeBytes has a stored spike whose max count equals
//     the bin's KiB total exactly.
//   - Spike soundness: no stored spike for a bin below SpikeBytes.
func checkSketch(res *Result, v *storedView) CheckResult {
	c := CheckResult{Claim: "sketch"}
	cfg := res.SketchCfg
	gt := res.GT

	// Rebuild the order-free plain-CMS ceiling and per-switch stream
	// lengths from the exact ledger.
	plain := make(map[uint16]*sketch.CMS)
	totals := make(map[uint16]uint64)
	for k, n := range gt.FlowPkts {
		cms := plain[k.SwitchID]
		if cms == nil {
			cms = sketch.NewCMS(cfg.CMSWidth, cfg.CMSDepth, false)
			plain[k.SwitchID] = cms
		}
		cms.AddN(k.Flow.Hash(), n)
		totals[k.SwitchID] += n
	}

	for k, n := range gt.FlowPkts {
		c.Checked++
		if n >= uint64(cfg.HHThresholdPkts) {
			if _, ok := v.hh[k]; !ok {
				c.failf("missed heavy hitter: sw %d %v true=%d threshold=%d",
					k.SwitchID, k.Flow, n, cfg.HHThresholdPkts)
			}
		}
		if n*uint64(cfg.TopK) > totals[k.SwitchID] && !v.churn[k] {
			c.failf("flow above N/K absent from stored top-K churn: sw %d %v true=%d N=%d K=%d",
				k.SwitchID, k.Flow, n, totals[k.SwitchID], cfg.TopK)
		}
	}

	for k, got := range v.hh {
		c.Checked++
		if gt.FlowPkts[k] == 0 {
			// Already failed as a phantom by the soundness checker; skip
			// the bound clauses for a flow with no ceiling.
			continue
		}
		if uint64(cfg.HHThresholdPkts) <= 0xffff && uint32(got) < cfg.HHThresholdPkts {
			c.failf("heavy hitter stored below threshold: sw %d %v count=%d threshold=%d",
				k.SwitchID, k.Flow, got, cfg.HHThresholdPkts)
		}
		if bound := plain[k.SwitchID].Estimate(k.Flow.Hash()); uint64(got) > uint64(bound) {
			c.failf("heavy-hitter overcount: sw %d %v stored=%d plain-CMS ceiling=%d true=%d",
				k.SwitchID, k.Flow, got, bound, gt.FlowPkts[k])
		}
	}

	for i := range v.events {
		e := &v.events[i]
		if e.Type != fevent.TypeTopKChurn {
			continue
		}
		c.Checked++
		n := gt.FlowPkts[dataplane.GTSwitchFlow{SwitchID: e.SwitchID, Flow: e.Flow}]
		if n == 0 {
			continue // phantom, reported by soundness
		}
		// count − err ≤ true is the space-saving invariant; skip events
		// whose fields saturated the 16-bit wire encoding.
		if e.Count != 0xffff && e.SketchErr != 0xffff &&
			uint64(e.Count) > n+uint64(e.SketchErr) {
			c.failf("top-K churn overcount: sw %d %v count=%d err=%d true=%d",
				e.SwitchID, e.Flow, e.Count, e.SketchErr, n)
		}
	}

	for k, bytes := range gt.LinkWindowBytes {
		c.Checked++
		if bytes < cfg.SpikeBytes {
			continue
		}
		want := (bytes + 1023) >> 10
		if want > 0xffff {
			want = 0xffff
		}
		got, ok := v.spike[k]
		if !ok {
			c.failf("missed aggregate spike: sw %d port %d window %d bytes=%d threshold=%d",
				k.SwitchID, k.Port, k.Window, bytes, cfg.SpikeBytes)
		} else if uint64(got) != want {
			c.failf("spike count mismatch: sw %d port %d window %d stored=%d KiB truth=%d KiB (bytes=%d)",
				k.SwitchID, k.Port, k.Window, got, want, bytes)
		}
	}
	for k := range v.spike {
		c.Checked++
		if gt.LinkWindowBytes[k] < cfg.SpikeBytes {
			c.failf("spike stored for a bin below threshold: sw %d port %d window %d bytes=%d threshold=%d",
				k.SwitchID, k.Port, k.Window, gt.LinkWindowBytes[k], cfg.SpikeBytes)
		}
	}
	return c
}

// CheckDelivery verifies claim 5 (§3.6): replaying the exported batches
// through the reliable switch-CPU→collector channel over a fault-injected
// TCP wire is at-least-once, and (switch, seq) dedup makes the final
// store an exact duplicate-free copy of the in-process delivery.
func CheckDelivery(res *Result) CheckResult {
	c := CheckResult{Claim: "delivery"}
	c.Checked = len(res.Batches)
	if len(res.Batches) == 0 {
		return c
	}
	store := collector.NewStore()
	// Scale the reset budget with the replay's wire volume so every
	// scenario suffers a comparable *number* of connection resets: a
	// fixed byte budget would make reset density grow linearly with the
	// batch count, and the sketch-heavy scenarios ship several times the
	// volume of the fault-free ones — enough that retransmit storms
	// outrun the flush deadline under -race.
	wireBytes := 0
	for _, b := range res.Batches {
		wireBytes += 32 + fevent.RecordLen*len(b.Events)
	}
	resetAfter := wireBytes / 6
	if resetAfter < 4096 {
		resetAfter = 4096
	}
	ln, err := faultconn.Listen("127.0.0.1:0", faultconn.Config{
		Seed:       int64(res.Sc.Seed),
		ResetAfter: resetAfter,
		MaxChunk:   16,
		Latency:    50 * time.Microsecond,
	})
	if err != nil {
		c.failf("faultconn listen: %v", err)
		return c
	}
	// Serving a listener already bound cannot fail.
	srv, _ := collector.NewServerConfig(store, "", collector.ServerConfig{Listener: ln, ReadTimeout: 300 * time.Millisecond})
	defer srv.Close()
	// FlushTimeout is a wall-clock deadline, not an invariant. How long
	// the replay takes is chaotic in its input: under -race the testbed
	// scenario of the matrix takes 8 to 21 s as its 65 batches become 62
	// to 66 (progress needs an ack to get out before the next reset), and
	// twice that beside another package's tests.
	cl := collector.NewClientConfig(srv.Addr(), collector.ClientConfig{
		BackoffMin:   2 * time.Millisecond,
		BackoffMax:   20 * time.Millisecond,
		FlushTimeout: 90 * time.Second,
		CloseTimeout: 5 * time.Second,
	})
	for _, b := range res.Batches {
		cl.Deliver(&fevent.Batch{SwitchID: b.SwitchID, Timestamp: b.Timestamp,
			Events: append([]fevent.Event(nil), b.Events...)})
	}
	if err := cl.Flush(); err != nil {
		c.failf("flush through faulty channel: %v (stats %+v)", err, cl.Stats())
		return c
	}
	if err := cl.Close(); err != nil {
		c.failf("close: %v", err)
	}

	for _, d := range EventMultisetDiff(res.Store.Query(collector.Filter{}), store.Query(collector.Filter{}), maxViolations) {
		c.failf("%s", d)
	}
	st := cl.Stats()
	if st.Retransmits > 0 && store.DupBatches() == 0 && st.Reconnects == 0 {
		// Retransmits without reconnects or dedup hits would mean the
		// at-least-once channel silently re-sequenced batches.
		c.failf("retransmits=%d with no reconnects and no dedup hits", st.Retransmits)
	}
	return c
}

// EventMultisetDiff compares two event sets as multisets of canonical
// records and returns one message per differing key (at most max; 0
// means unlimited), sorted for stable output. An empty result means the
// candidate holds exactly the reference's events with exactly the same
// multiplicities — the equality both the delivery checker and the
// crash-recovery harness assert.
func EventMultisetDiff(reference, candidate []fevent.Event, max int) []string {
	want, got := multiset(reference), multiset(candidate)
	var diffs []string
	for k, n := range want {
		if got[k] != n {
			diffs = append(diffs, fmt.Sprintf("event stored %d× in reference but %d× in candidate: %s", n, got[k], k))
		}
	}
	for k, n := range got {
		if _, ok := want[k]; !ok {
			diffs = append(diffs, fmt.Sprintf("candidate has %d× an event the reference never saw: %s", n, k))
		}
	}
	sort.Strings(diffs)
	if max > 0 && len(diffs) > max {
		diffs = diffs[:max]
	}
	return diffs
}

// multiset renders events into count-keyed canonical strings covering
// exactly what the wire preserves: the batch switch ID plus the full
// 24-byte record. Per-event timestamps are deliberately excluded — CEBP
// records carry none (§3.5), so decode restamps every event with the
// batch timestamp and the replayed store can never match emission-time
// stamps.
func multiset(events []fevent.Event) map[string]int {
	m := make(map[string]int)
	var rec []byte
	for i := range events {
		e := &events[i]
		rec = e.AppendRecord(rec[:0])
		k := fmt.Sprintf("sw=%d %s [%x]", e.SwitchID, e.String(), rec)
		m[k]++
	}
	return m
}
