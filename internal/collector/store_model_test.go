package collector

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// The differential test drives the block store and a reference model —
// the design the blocks replaced: one slice in ingestion order, every
// read a linear scan through Filter.matches — with the same program and
// requires the same answer from every read. The model holds every
// event's hash as its flow key's CRC, whatever hash it was delivered
// with: the store's contract (DESIGN §10).

// matches is the reference filter semantics, one event at a time.
func (f *Filter) matches(e *fevent.Event) bool {
	return (f.Flow == nil || e.Flow == *f.Flow) &&
		(f.SwitchID == nil || e.SwitchID == *f.SwitchID) &&
		(f.Type == 0 || e.Type == f.Type) &&
		e.Timestamp >= f.Since && (f.Until == 0 || e.Timestamp <= f.Until) &&
		(f.DropCode == fevent.DropNone || e.DropCode == f.DropCode)
}

type modelStore struct {
	events []fevent.Event
	seen   map[batchKey]bool
	dups   uint64
}

func (m *modelStore) Deliver(b *fevent.Batch) {
	if b.Seq != 0 {
		if k := (batchKey{b.SwitchID, b.Seq}); m.seen[k] {
			m.dups++
			return
		} else {
			m.seen[k] = true
		}
	}
	m.add(b.Events)
}

// canonical returns e with its hash its flow key's CRC.
func canonical(e fevent.Event) fevent.Event {
	e.Hash = e.Flow.Hash()
	return e
}

// add stores evs, each as canonical.
func (m *modelStore) add(evs []fevent.Event) {
	for _, e := range evs {
		m.events = append(m.events, canonical(e))
	}
}

// RemoveEvents drops the earliest stored copy of each element of evs,
// taken as canonical.
func (m *modelStore) RemoveEvents(evs []fevent.Event) int {
	want := map[fevent.Event]int{}
	for _, e := range evs {
		want[canonical(e)]++
	}
	kept := m.events[:0]
	for _, e := range m.events {
		if want[e] > 0 {
			want[e]--
			continue
		}
		kept = append(kept, e)
	}
	removed := len(m.events) - len(kept)
	m.events = kept
	return removed
}

func (m *modelStore) Query(f Filter) []fevent.Event {
	var out []fevent.Event
	for i := range m.events {
		if f.matches(&m.events[i]) {
			out = append(out, m.events[i])
		}
	}
	return out
}

// pair runs one program against both and compares as it goes.
type pair struct {
	t      *testing.T
	r      *rand.Rand
	st     *Store
	m      *modelStore
	types  []fevent.Type // what event draws from
	hashes hashDraw      // how event draws a record's hash
}

// hashDraw is a way to draw the hash an event is delivered with: its
// flow key's CRC, as every producer sets it; that XOR a value below 32;
// or at random. The store keeps none of them and answers every read with
// the CRC, as the model does.
type hashDraw int

const (
	hashPerFlow hashDraw = iota
	hashDeltas
	hashRandom
	hashDraws // how many ways there are
)

// hash draws a record hash for an event of flow f.
func (p *pair) hash(f pkt.FlowKey) uint32 {
	switch p.hashes {
	case hashDeltas:
		return f.Hash() ^ uint32(p.r.Intn(32))
	case hashRandom:
		return p.r.Uint32()
	}
	return f.Hash()
}

func newPair(t *testing.T, seed int64) *pair {
	return &pair{t: t, r: rand.New(rand.NewSource(seed)), st: NewStore(), m: &modelStore{seen: map[batchKey]bool{}}, types: fevent.Types}
}

func modelFlow(i int) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 0) + uint32(i), DstIP: pkt.IP(10, 1, 0, 1), SrcPort: uint16(1000 + i), DstPort: 80, Proto: pkt.ProtoTCP}
}

// event draws one event that is its own record image: only the fields
// its type's 24 B record carries are set.
func (p *pair) event(flows, switches int, ts sim.Time) fevent.Event {
	r := p.r
	e := fevent.Event{Type: p.types[r.Intn(len(p.types))], Flow: modelFlow(r.Intn(flows)),
		SwitchID: uint16(1 + r.Intn(switches)), Timestamp: ts, Count: uint16(1 + r.Intn(100)), EgressPort: uint8(r.Intn(32))}
	switch e.Type {
	case fevent.TypeDrop:
		e.IngressPort, e.DropCode = uint8(r.Intn(32)), fevent.DropCode(1+r.Intn(int(fevent.DropCorruption)))
		if e.DropCode == fevent.DropACLDeny {
			e.ACLRule = uint8(1 + r.Intn(8))
		}
	case fevent.TypeCongestion:
		e.Queue, e.QueueLatencyUs = uint8(r.Intn(8)), uint16(10+r.Intn(2000))
	case fevent.TypePathChange, fevent.TypeHeavyHitter:
		e.IngressPort = uint8(r.Intn(32))
	case fevent.TypePause:
		e.Queue = uint8(r.Intn(8))
	case fevent.TypeTopKChurn:
		e.SketchErr = uint16(r.Intn(500))
	case fevent.TypeAggSpike:
		e.Flow, e.Window = pkt.FlowKey{}, uint16(r.Intn(100))
	}
	e.Hash = p.hash(e.Flow)
	return e
}

// events draws n events; jitter > 0 gives each its own stamp within
// ±jitter of ts, as an in-process batch does, so block [min, max] ranges
// overlap.
func (p *pair) events(n, flows, switches int, ts, jitter sim.Time) []fevent.Event {
	evs := make([]fevent.Event, n)
	for i := range evs {
		at := ts
		if jitter > 0 {
			at += sim.Time(p.r.Int63n(int64(2*jitter))) - jitter
		}
		evs[i] = p.event(flows, switches, at)
	}
	return evs
}

func (p *pair) deliver(sw uint16, seq uint64, ts sim.Time, evs []fevent.Event) {
	b := &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: evs}
	p.st.Deliver(b)
	p.m.Deliver(b)
}

// wirePayload encodes b as the frame payload a switch CPU sends, then
// sets every detail byte its records' types leave undefined: the
// collector must take it as if those bytes were clear.
func wirePayload(t testing.TB, b *fevent.Batch) []byte {
	t.Helper()
	frame, err := AppendFrame(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[wal.RecordHdrLen:]
	recs := payload[len(payload)-len(b.Events)*fevent.RecordLen:]
	for i := range b.Events {
		switch r := recs[i*fevent.RecordLen:]; b.Events[i].Type {
		case fevent.TypePathChange, fevent.TypePause, fevent.TypeHeavyHitter:
			r[16], r[17] = 0xa5, 0x5a
		case fevent.TypeTopKChurn, fevent.TypeAggSpike:
			r[15] = 0xa5
		}
	}
	return payload
}

// deliverPayload delivers the batch to the store as a frame payload — the
// path of the TCP server and of WAL replay — and to the model as the
// events that payload decodes to: every one stamped from the batch
// header, as the wire stamps them. It returns whether the payload's
// records straddled a block boundary.
func (p *pair) deliverPayload(sw uint16, seq uint64, ts sim.Time, evs []fevent.Event) bool {
	p.t.Helper()
	for i := range evs {
		evs[i].SwitchID, evs[i].Timestamp = sw, ts
	}
	b := &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: evs}
	if p.r.Intn(3) == 0 {
		b.Trace = trace.Context{TraceID: 1 + p.r.Uint64()>>1}
	}
	view, err := ViewPayload(wirePayload(p.t, b))
	if err != nil {
		p.t.Fatalf("ViewPayload of an encoded batch: %v", err)
	}
	if view.SwitchID != sw || view.Timestamp != ts || view.Seq != seq || view.Trace != b.Trace || view.Events() != len(evs) {
		p.t.Fatalf("view %+v of batch (%d, %d, %d, %+v, %d events)", view, sw, ts, seq, b.Trace, len(evs))
	}
	before := p.st.Len()
	p.st.DeliverPayload(&view)
	p.m.Deliver(b)
	return before/blockLen != (p.st.Len()-1)/blockLen && p.st.Len() > before
}

// batchImage is the reference encoder of a record image: one batch per
// maximal run of consecutive events that share a switch and a stamp,
// split at fevent.MaxBatchRecords — what Store.AppendImage must write for
// the events it selects, and what a handoff ships.
func batchImage(evs []fevent.Event) []byte {
	var img []byte
	for len(evs) > 0 {
		n := 1
		for n < len(evs) && n < fevent.MaxBatchRecords &&
			evs[n].SwitchID == evs[0].SwitchID && evs[n].Timestamp == evs[0].Timestamp {
			n++
		}
		b := fevent.Batch{SwitchID: evs[0].SwitchID, Timestamp: evs[0].Timestamp, Events: evs[:n]}
		img, _ = b.AppendTo(img) // n <= MaxBatchRecords: no error
		evs = evs[n:]
	}
	return img
}

// importEvents stores evs through their record image.
func importEvents(t testing.TB, st *Store, evs []fevent.Event) {
	t.Helper()
	if n, err := st.ImportImage(batchImage(evs)); n != len(evs) || err != nil {
		t.Fatalf("ImportImage of %d events: %d, %v", len(evs), n, err)
	}
}

// removeEvents fences the multiset evs through its record image and
// returns how many copies went.
func removeEvents(t testing.TB, st *Store, evs []fevent.Event) int {
	t.Helper()
	n, err := st.RemoveImage(batchImage(evs))
	if err != nil {
		t.Fatalf("RemoveImage of %d events: %v", len(evs), err)
	}
	return n
}

// add imports evs as a handoff destination does: a record image, stored
// outside any batch.
func (p *pair) add(evs []fevent.Event) {
	p.t.Helper()
	importEvents(p.t, p.st, evs)
	p.m.add(evs)
}

// remove fences the multiset evs as a handoff source does: by the image
// of its records.
func (p *pair) remove(evs []fevent.Event) {
	p.t.Helper()
	if got, want := removeEvents(p.t, p.st, evs), p.m.RemoveEvents(evs); got != want {
		p.t.Fatalf("RemoveImage(%d events) removed %d, model %d", len(evs), got, want)
	}
}

// reload round-trips the store through its snapshot into a fresh store.
func (p *pair) reload() {
	p.t.Helper()
	fresh, img := NewStore(), p.st.EncodeSnapshot()
	if err := fresh.LoadSnapshot(img); err != nil {
		p.t.Fatalf("LoadSnapshot of own snapshot: %v", err)
	}
	if again := fresh.EncodeSnapshot(); !bytes.Equal(again, img) {
		p.t.Fatalf("a reloaded store re-encodes to a different image (%d bytes, was %d)", len(again), len(img))
	}
	p.st = fresh
}

// handoff moves the events of one switch to a second store and back the
// way the fabric does — the record image AppendImage writes, ImportImage
// and the dedup set at the destination, RemoveImage of the same image at
// the source — so they end up at the tail of the log. The image must be
// byte for byte the reference encoding of what ExportWhere returns, by a
// predicate and by a filter alike.
func (p *pair) handoff(sw uint16) {
	p.t.Helper()
	img := p.st.AppendImage(nil, &Filter{}, func(s uint16, _ *[fevent.RecordLen]byte) bool { return s == sw })
	moving := p.st.ExportWhere(func(e *fevent.Event) bool { return e.SwitchID == sw })
	if want := batchImage(moving); !bytes.Equal(img, want) {
		p.t.Fatalf("AppendImage of switch %d writes %d B, the reference image of its %d events %d B", sw, len(img), len(moving), len(want))
	}
	if byFilter := p.st.AppendImage(nil, &Filter{SwitchID: &sw}, nil); !bytes.Equal(byFilter, img) {
		p.t.Fatalf("AppendImage by filter writes %d B, by predicate %d B", len(byFilter), len(img))
	}
	dst := NewStore()
	if len(img) > 0 {
		if _, err := dst.ImportImage(img[:len(img)-1]); err == nil || dst.Len() != 0 {
			p.t.Fatalf("ImportImage of a truncated image: %v, %d events stored", err, dst.Len())
		}
	}
	if n, err := dst.ImportImage(img); err != nil || n != len(moving) {
		p.t.Fatalf("ImportImage of %d events: %d, %v", len(moving), n, err)
	}
	if got := dst.Query(Filter{}); !slices.Equal(got, moving) {
		p.t.Fatalf("image round trip of %d events: %d, first diff at %d", len(moving), len(got), firstDiff(got, moving))
	}
	dst.MergeSeen(p.st.ExportSeen())
	for k := range p.m.seen {
		if !dst.SeenBatch(k.sw, k.seq) {
			p.t.Fatalf("destination does not dedup batch (%d, %d)", k.sw, k.seq)
		}
	}
	if got, err := p.st.RemoveImage(img); err != nil || got != p.m.RemoveEvents(moving) || got != len(moving) {
		p.t.Fatalf("RemoveImage of the %d moved events: %d, %v", len(moving), got, err)
	}
	p.add(dst.Query(Filter{}))
}

// compare checks every read of the store against the model, and every
// block summary against the block's own columns.
func (p *pair) compare(flows, switches int) {
	p.t.Helper()
	if err := p.check(flows, switches); err != nil {
		p.t.Fatal(err)
	}
	summariesFromColumns(p.t, p.st)
}

// randomFilter draws a filter over any subset of {switch, type, code,
// since/until, flow}, present and absent values for each. Window bounds
// come from the store's own blocks — a block's first or last stamp, a
// stamp off the middle of one, each nudged by -1, 0 or +1 — so windows
// start and end mid-block, cover blocks exactly, stop one short of
// covering them, and miss every block.
func (p *pair) randomFilter(flows, switches int) Filter {
	r, blocks := p.r, p.st.blocks
	var f Filter
	if r.Intn(2) == 0 {
		f.SwitchID = ptr(uint16(1 + r.Intn(switches+1))) // switches+1 reports nothing
	}
	if r.Intn(2) == 0 {
		f.Type = fevent.Types[r.Intn(len(fevent.Types))]
	}
	if r.Intn(5) == 0 {
		f.DropCode = fevent.DropCode(1 + r.Intn(int(fevent.DropCorruption)))
	}
	if r.Intn(6) == 0 {
		f.Flow = ptr(modelFlow(r.Intn(flows + 1)))
	}
	bound := func() sim.Time {
		b := blocks[r.Intn(len(blocks))]
		return []sim.Time{sim.Time(b.minTs), sim.Time(b.maxTs), stampAt(b, r.Intn(b.n))}[r.Intn(3)] + sim.Time(r.Intn(3)-1)
	}
	if len(blocks) > 0 {
		switch r.Intn(5) {
		case 0: // no window
		case 1:
			f.Since = bound()
		case 2:
			f.Until = max(bound(), 1) // 0 would mean no bound
		case 3:
			f.Since, f.Until = bound(), max(bound(), 1) // empty when they cross
		default: // after everything stored
			f.Since = sim.Time(blocks[len(blocks)-1].maxTs) + sim.Second
		}
	}
	return f
}

// storeEvents reads netseer_store_events off a registry the store is
// registered on.
func storeEvents(st *Store) (map[string]int, error) {
	reg := obs.NewRegistry()
	st.RegisterMetrics(reg)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		return nil, err
	}
	out := map[string]int{}
	for _, l := range strings.Split(sb.String(), "\n") {
		if labels, ok := strings.CutPrefix(l, obs.MStoreEvents+"{"); ok {
			labels, v, _ := strings.Cut(labels, "} ")
			n, err := strconv.Atoi(v)
			if err != nil {
				return nil, fmt.Errorf("sample %q: %v", l, err)
			}
			out[labels] = n
		}
	}
	return out, nil
}

// check compares every read of the store with the model: the whole log,
// every combination of filter fields (present and absent values for
// each), random filters with block-aligned windows, then the aggregates.
func (p *pair) check(flows, switches int) error {
	st, m := p.st, p.m
	if st.Len() != len(m.events) || st.DupBatches() != m.dups {
		return fmt.Errorf("Len %d dups %d, model %d / %d", st.Len(), st.DupBatches(), len(m.events), m.dups)
	}
	for k := range m.seen {
		if !st.SeenBatch(k.sw, k.seq) {
			return fmt.Errorf("SeenBatch(%d, %d) = false", k.sw, k.seq)
		}
	}
	tMin, tMax := sim.Time(math.MaxInt64), sim.Time(0)
	for i := range m.events {
		tMin, tMax = min(tMin, m.events[i].Timestamp), max(tMax, m.events[i].Timestamp)
	}
	mid := tMax / 2
	flowOpts := []*pkt.FlowKey{nil, {}, ptr(modelFlow(p.r.Intn(flows))), ptr(modelFlow(flows + 7))}
	swOpts := []*uint16{nil, ptr(uint16(1 + p.r.Intn(switches))), ptr(uint16(switches + 9))}
	typeOpts := []fevent.Type{0, fevent.TypeDrop, fevent.Types[p.r.Intn(len(fevent.Types))]}
	timeOpts := [][2]sim.Time{{0, 0}, {mid, 0}, {0, mid}, {mid / 2, mid}, {tMax, 0}, {0, tMin}, {tMax + 1, 0}}
	codeOpts := []fevent.DropCode{fevent.DropNone, fevent.DropNoRoute}
	// A large store checks every fifth combination: five is coprime to
	// every option count, so each value of a field still meets every
	// value of the others.
	stride, combo := 1, 0
	if len(m.events) > blockLen/2 {
		stride = 5
	}
	one := func(f Filter) error {
		want := m.Query(f)
		if got := st.Query(f); !slices.Equal(got, want) {
			return fmt.Errorf("Query(%+v): %d events, model %d (first diff at %d)", f, len(got), len(want), firstDiff(got, want))
		}
		if got := st.Count(f); got != len(want) {
			return fmt.Errorf("Count(%+v) = %d, model %d", f, got, len(want))
		}
		if got, want := st.AppendImage(nil, &f, nil), batchImage(want); !bytes.Equal(got, want) {
			return fmt.Errorf("AppendImage(%+v): %d B, the reference image of the model's events %d B", f, len(got), len(want))
		}
		return nil
	}
	for _, fl := range flowOpts {
		for _, sw := range swOpts {
			for _, ty := range typeOpts {
				for _, tr := range timeOpts {
					for _, code := range codeOpts {
						if combo++; combo%stride != 0 {
							continue
						}
						if err := one(Filter{Flow: fl, SwitchID: sw, Type: ty, Since: tr[0], Until: tr[1], DropCode: code}); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	for i := 0; i < 60; i++ {
		if err := one(p.randomFilter(flows, switches)); err != nil {
			return err
		}
	}
	odd := func(e *fevent.Event) bool { return e.Count%2 == 1 }
	var wantOdd []fevent.Event
	for i := range m.events {
		if odd(&m.events[i]) {
			wantOdd = append(wantOdd, m.events[i])
		}
	}
	if got := st.ExportWhere(odd); !slices.Equal(got, wantOdd) {
		return fmt.Errorf("ExportWhere: %d events, model %d", len(got), len(wantOdd))
	}

	// Aggregates, recomputed from the model's slice. The store sums all
	// three count surfaces — CountByType, Summary, the events_total
	// samples — over its block summaries.
	byType := map[fevent.Type]int{}
	rows := map[swType]*SummaryRow{}
	rowFlows := map[swType]map[pkt.FlowKey]bool{}
	samples := map[string]int{}
	flowSet := map[pkt.FlowKey]bool{}
	window := Filter{SwitchID: swOpts[1], Since: mid / 2, Until: mid, Type: fevent.TypePause}
	congestion, windowed := 0, 0
	for i := range m.events {
		e := &m.events[i]
		k := swType{e.SwitchID, e.Type}
		byType[e.Type]++
		flowSet[e.Flow] = true
		if rows[k] == nil {
			rows[k], rowFlows[k] = &SummaryRow{SwitchID: e.SwitchID, Type: e.Type}, map[pkt.FlowKey]bool{}
		}
		rows[k].Events++
		rowFlows[k][e.Flow] = true
		samples[fmt.Sprintf(`switch="%d",type="%s"`, e.SwitchID, e.Type)]++
		if e.Type == fevent.TypeCongestion && e.SwitchID == *swOpts[1] {
			if congestion++; e.Timestamp >= window.Since && e.Timestamp <= window.Until {
				windowed++
			}
		}
	}
	if got := st.CountByType(); !reflect.DeepEqual(got, byType) {
		return fmt.Errorf("CountByType = %v, model %v", got, byType)
	}
	if got, err := storeEvents(st); err != nil || !reflect.DeepEqual(got, samples) {
		return fmt.Errorf("%s = %v (%v), model %v", obs.MStoreEvents, got, err, samples)
	}
	if got := st.LatencyHistogram(Filter{SwitchID: swOpts[1]}).Count; got != uint64(congestion) {
		return fmt.Errorf("LatencyHistogram(switch %d) holds %d, model %d", *swOpts[1], got, congestion)
	}
	if got := st.LatencyHistogram(window).Count; got != uint64(windowed) {
		return fmt.Errorf("LatencyHistogram(%+v) holds %d, model %d", window, got, windowed)
	}
	summary := st.Summary()
	if len(summary) != len(rows) {
		return fmt.Errorf("Summary has %d rows, model %d", len(summary), len(rows))
	}
	for _, row := range summary {
		k := swType{row.SwitchID, row.Type}
		if rows[k] == nil || row.Events != rows[k].Events || row.Flows != len(rowFlows[k]) {
			return fmt.Errorf("Summary row %+v, model %+v with %d flows", row, rows[k], len(rowFlows[k]))
		}
	}
	got := st.Flows()
	if len(got) != len(flowSet) {
		return fmt.Errorf("Flows has %d, model %d", len(got), len(flowSet))
	}
	for _, f := range got {
		if !flowSet[f] {
			return fmt.Errorf("Flows lists %v, which the model does not hold", f)
		}
	}
	for i := 0; i < 4; i++ {
		f := modelFlow(p.r.Intn(flows))
		if got, want := st.PathOf(f), modelPath(m, f); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("PathOf(%v) = %v, model %v", f, got, want)
		}
	}
	return nil
}

func modelPath(m *modelStore, flow pkt.FlowKey) []PathHop {
	latest := map[uint16]PathHop{}
	for _, e := range m.Query(Filter{Flow: &flow, Type: fevent.TypePathChange}) {
		if prev, ok := latest[e.SwitchID]; !ok || e.Timestamp >= prev.At {
			latest[e.SwitchID] = PathHop{SwitchID: e.SwitchID, In: e.IngressPort, Out: e.EgressPort, At: e.Timestamp}
		}
	}
	out := make([]PathHop, 0, len(latest))
	for _, h := range latest {
		out = append(out, h)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].At != out[j].At {
			return out[i].At < out[j].At
		}
		return out[i].SwitchID < out[j].SwitchID
	})
	return out
}

func ptr[T any](v T) *T { return &v }

func firstDiff(a, b []fevent.Event) int {
	for i := range a {
		if i >= len(b) || a[i] != b[i] {
			return i
		}
	}
	return len(a)
}

// TestStoreModelRandomPrograms runs seeded random programs of every
// mutation the store has — Deliver and DeliverPayload (the same batch
// as decoded events or as a frame payload with its undefined detail
// bytes set) with fresh, replayed and zero sequence numbers, ImportImage,
// RemoveImage of stored and never-stored events, a handoff out and back,
// a snapshot round trip — and after each step compares every read, the
// filter grid and sixty random filters included (Count = len(Query) =
// model, AppendImage = the reference image of the model's answer), and
// every block summary with its columns. The seeds take turns at the
// three ways to draw a hash.
func TestStoreModelRandomPrograms(t *testing.T) {
	const flows, switches = 12, 4
	for seed := int64(1); seed <= 12; seed++ {
		p := newPair(t, seed)
		p.hashes = hashDraw(seed % int64(hashDraws))
		var seq uint64
		for step := 0; step < 40; step++ {
			ts := sim.Time(1+step) * sim.Millisecond
			switch op := p.r.Intn(10); {
			case op < 5:
				sw := uint16(1 + p.r.Intn(switches))
				s := seq + 1
				switch p.r.Intn(4) {
				case 0:
					s = 0 // unsequenced, in-process
				case 1:
					s = 1 + uint64(p.r.Intn(int(seq)+1)) // a replay, unless this switch never used it
				default:
					seq++
				}
				if evs := p.events(p.r.Intn(61), flows, switches, ts, sim.Time(p.r.Intn(2))*sim.Millisecond); p.r.Intn(2) == 0 {
					p.deliver(sw, s, ts, evs)
				} else {
					p.deliverPayload(sw, s, ts, evs)
				}
			case op < 6:
				p.add(p.events(1+p.r.Intn(20), flows, switches, ts, 0))
			case op < 8 && len(p.m.events) > 0:
				var evs []fevent.Event
				for i := 0; i < 1+p.r.Intn(30); i++ {
					evs = append(evs, p.m.events[p.r.Intn(len(p.m.events))]) // repeats ask for more copies than may exist
				}
				evs = append(evs, p.event(flows, switches, ts+1)) // never stored
				p.remove(evs)
			case op < 9:
				p.handoff(uint16(1 + p.r.Intn(switches+1))) // sometimes a switch with no events
			default:
				p.reload()
			}
			p.compare(flows, switches)
		}
	}
}

// TestStoreModelBlockBoundaries is the directed half: stores one event
// short of, exactly at and one past a block boundary; a flow whose chain
// spans three blocks and more links than the visitor's stack buffer;
// per-event stamps that overlap across blocks, so [min, max] pruning
// runs where it must not prune; frame payloads whose records straddle a
// block boundary; and a RemoveImage that empties a whole
// block out of the middle. Each is compared before and after a snapshot
// round trip.
func TestStoreModelBlockBoundaries(t *testing.T) {
	const flows, switches = 5, 3
	for _, n := range []int{blockLen - 1, blockLen, blockLen + 1, 3*blockLen + 100} {
		p := newPair(t, int64(n))
		straddled := false
		for done, seq := 0, uint64(1); done < n; seq++ {
			size := min(370, n-done)
			ts := sim.Millisecond + sim.Time(seq)*10*sim.Microsecond
			// Jitter of 50 batch spacings: neighbouring blocks' time
			// ranges overlap by hundreds of events. Every other batch
			// arrives as a frame payload, one run of up to 370 records.
			evs := p.events(size, flows, switches, ts, 500*sim.Microsecond)
			if seq%2 == 0 {
				p.deliver(uint16(1+seq%switches), seq, ts, evs)
			} else if p.deliverPayload(uint16(1+seq%switches), seq, ts, evs) {
				straddled = true
			}
			done += size
		}
		if n > blockLen+1 && !straddled {
			t.Fatalf("%d events: no frame payload straddled a block boundary", n)
		}
		if want := (n + blockLen - 1) / blockLen; len(p.st.blocks) != want {
			t.Fatalf("%d events sit in %d blocks, want %d", n, len(p.st.blocks), want)
		}
		p.compare(flows, switches)
		p.reload()
		p.compare(flows, switches)
		if n < 3*blockLen {
			continue
		}
		if got := p.st.Count(Filter{Flow: ptr(modelFlow(0))}); got < 2*blockLen/flows {
			t.Fatalf("flow 0 has %d events: its chain does not span three blocks", got)
		}
		p.remove(append([]fevent.Event(nil), p.m.events[blockLen:2*blockLen]...))
		if len(p.st.blocks) != 3 {
			t.Fatalf("after removing one block's worth, %d blocks remain, want 3", len(p.st.blocks))
		}
		p.compare(flows, switches)
		p.reload()
		p.compare(flows, switches)
		p.remove(append([]fevent.Event(nil), p.m.events...))
		if empty := NewStore().MemoryBytes(); len(p.st.blocks) != 0 || p.st.seen.n != len(p.m.seen) || p.st.MemoryBytes() != empty+seenCharge(&p.st.seen) {
			t.Fatalf("emptied store keeps %d blocks, %d bytes; its %d dedup keys (model: %d) hold %d over an empty store's %d",
				len(p.st.blocks), p.st.MemoryBytes(), p.st.seen.n, len(p.m.seen), seenCharge(&p.st.seen), empty)
		}
		p.compare(flows, switches)
	}
}

// TestStoreModelBlockSummaries is the directed half for the summaries:
// three phases of traffic, each from its own switches and of its own
// types, so that every block lacks some switch and some type a filter can
// name and the visitor skips blocks for real; batch stamps rise without
// jitter in the first phase (block ranges disjoint: windows cover whole
// blocks) and with it afterwards (ranges overlap). Compared after
// Deliver and DeliverPayload, ImportImage, a RemoveImage that takes one
// switch out of the middle blocks whole, and a snapshot round trip.
func TestStoreModelBlockSummaries(t *testing.T) {
	const flows, switches = 9, 5
	p := newPair(t, 19)
	phases := []struct {
		n        int
		switches []uint16
		types    []fevent.Type
		jitter   sim.Time
	}{
		{blockLen + blockLen/3, []uint16{1, 2}, []fevent.Type{fevent.TypeDrop, fevent.TypeCongestion}, 0},
		{blockLen + blockLen/3, []uint16{2, 3}, []fevent.Type{fevent.TypeCongestion, fevent.TypePause, fevent.TypePathChange}, 300 * sim.Microsecond},
		{blockLen, []uint16{4}, fevent.Types, 300 * sim.Microsecond},
	}
	seq := uint64(0)
	for _, ph := range phases {
		p.types = ph.types
		for done := 0; done < ph.n; {
			seq++
			size := min(1+p.r.Intn(200), ph.n-done)
			ts := sim.Millisecond + sim.Time(seq)*10*sim.Microsecond
			evs := p.events(size, flows, switches, ts, ph.jitter)
			for i := range evs {
				evs[i].SwitchID = ph.switches[p.r.Intn(len(ph.switches))]
			}
			if sw := ph.switches[seq%uint64(len(ph.switches))]; seq%2 == 0 {
				p.deliver(sw, seq, ts, evs)
			} else {
				p.deliverPayload(sw, seq, ts, evs)
			}
			done += size
		}
	}
	if len(p.st.blocks) != 4 {
		t.Fatalf("%d blocks, want 4", len(p.st.blocks))
	}
	// The blocks a switch=1, a switch=4 and a type=pause read must skip.
	for _, c := range []struct {
		q    selector
		want []bool
	}{
		{selector{bySw: true, sw: 1}, []bool{true, true, false, false}},
		{selector{bySw: true, sw: 4}, []bool{false, false, true, true}},
		{selector{typ: uint8(fevent.TypePause)}, []bool{false, true, true, true}},
		{selector{bySw: true, sw: 3, typ: uint8(fevent.TypeDrop)}, []bool{false, false, false, false}},
	} {
		for i, b := range p.st.blocks {
			if got := b.count(&c.q) > 0; got != c.want[i] {
				t.Fatalf("block %d holds events of %+v: %v, want %v", i, c.q, got, c.want[i])
			}
		}
	}
	p.compare(flows, switches)
	p.types = fevent.Types
	p.add(p.events(40, flows, switches, 2*sim.Second, 0)) // any switch, any type, at the tail
	p.compare(flows, switches)
	p.reload()
	p.compare(flows, switches)
	p.remove(p.m.Query(Filter{SwitchID: ptr(uint16(2))}))
	if got := p.st.blocks[1].count(&selector{bySw: true, sw: 2}); got != 0 {
		t.Fatalf("block 1 still counts %d events of switch 2 after their removal", got)
	}
	p.compare(flows, switches)
	p.reload()
	p.compare(flows, switches)
}

// TestStoreModelCatchesStaleSummaries seeds the two ways a summary can go
// stale into a store the differential has just passed — the rows a
// RemoveImage should have rebuilt left as they were, the rows a
// LoadSnapshot should have built left out — and requires the differential
// to fail on its reads alone.
func TestStoreModelCatchesStaleSummaries(t *testing.T) {
	const flows, switches = 12, 4
	build := func(seed int64) *pair {
		p := newPair(t, seed)
		for seq := uint64(1); seq <= 30; seq++ {
			ts := sim.Time(seq) * sim.Millisecond
			p.deliver(uint16(1+seq%switches), seq, ts, p.events(50, flows, switches, ts, 0))
		}
		p.compare(flows, switches)
		return p
	}

	p := build(31)
	stale := slices.Clone(p.st.blocks[0].sum)
	p.remove(p.m.Query(Filter{SwitchID: ptr(uint16(2)), Type: fevent.TypeDrop}))
	p.compare(flows, switches)
	p.st.blocks[0].sum = stale
	if err := p.check(flows, switches); err == nil {
		t.Error("RemoveImage leaving the old summary in place: the differential passed")
	} else {
		t.Logf("stale after RemoveImage: %v", err)
	}

	p = build(32)
	p.reload()
	p.compare(flows, switches)
	p.st.blocks[0].sum, p.st.sumRows = nil, 0
	if err := p.check(flows, switches); err == nil {
		t.Error("LoadSnapshot building no summary: the differential passed")
	} else {
		t.Logf("missing after LoadSnapshot: %v", err)
	}
}

// TestPayloadDeliveryEqualsEventsDelivery feeds one store decoded batches
// and another the same batches as frame payloads whose undefined detail
// bytes are set on the wire — empty, single-record and full batches,
// traced and untraced, replays, enough of them to cross a block boundary
// — and requires equal answers and equal snapshots, byte for byte:
// a holder of the bytes keeps exactly the AppendRecord(DecodeRecord(rec))
// image a holder of the events writes.
func TestPayloadDeliveryEqualsEventsDelivery(t *testing.T) {
	p := newPair(t, 18)
	byEvents, byPayload := NewStore(), NewStore()
	sizes := []int{50, 0, 1, fevent.MaxBatchRecords, 8, 50}
	for seq := uint64(1); byPayload.Len() <= blockLen+fevent.MaxBatchRecords; seq++ {
		sw, ts := uint16(1+seq%3), sim.Time(seq)*sim.Millisecond
		b := &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: p.events(sizes[seq%uint64(len(sizes))], 40, 3, ts, 0)}
		if seq%4 == 0 {
			b.Trace = trace.Context{TraceID: seq, Parent: 7}
		}
		if seq%9 == 0 {
			b.Seq = seq - 3 // a replay of this switch's last batch: both must drop it
		}
		payload := wirePayload(t, b)
		var decoded fevent.Batch
		if err := DecodePayload(append([]byte(nil), payload...), &decoded); err != nil {
			t.Fatal(err)
		}
		byEvents.Deliver(&decoded)
		view, err := ViewPayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		byPayload.DeliverPayload(&view)
	}
	if byEvents.DupBatches() == 0 || byEvents.DupBatches() != byPayload.DupBatches() {
		t.Fatalf("duplicates dropped: %d by events, %d by payload", byEvents.DupBatches(), byPayload.DupBatches())
	}
	if a, b := byEvents.Query(Filter{}), byPayload.Query(Filter{}); !slices.Equal(a, b) {
		t.Fatalf("Query: %d events by events, %d by payload, first diff at %d", len(a), len(b), firstDiff(a, b))
	}
	if a, b := byEvents.MemoryBytes(), byPayload.MemoryBytes(); a != b {
		t.Fatalf("MemoryBytes: %d by events, %d by payload", a, b)
	}
	if !bytes.Equal(byEvents.EncodeSnapshot(), byPayload.EncodeSnapshot()) {
		t.Fatal("the two stores' snapshots differ: a payload-fed store does not hold the canonical record image")
	}
}

// TestStoredHashIsItsKeysCRC pins what the store keeps of a record's
// hash: nothing. Every read answers with the flow key's CRC-32C
// (pkt.WireHash), whatever hash the record came with — the canonical view
// ViewPayload also takes of detail bytes a type leaves undefined. Batches
// whose every hash is drawn at random go in through Deliver,
// DeliverPayload and ImportImage, and into a log, with a checkpoint half
// way, that RecoverStore replays; each store, and a snapshot round trip
// of it, must answer Query, AppendImage, PathOf and EncodeSnapshot
// exactly as a store fed the same batches with each hash its key's CRC.
// A RemoveImage whose image carries the drawn hashes must remove what
// one carrying the CRCs removes from the reference. The log keeps the
// drawn bytes (TestTheLogIsTheWire).
func TestStoredHashIsItsKeysCRC(t *testing.T) {
	const flows = 8
	p := newPair(t, 51)
	p.hashes = hashRandom
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	canon := func(b *fevent.Batch) *fevent.Batch {
		c := *b
		c.Events = make([]fevent.Event, len(b.Events))
		for i, e := range b.Events {
			c.Events[i] = canonical(e)
		}
		return &c
	}
	payload := func(st *Store, b *fevent.Batch) {
		view, err := ViewPayload(wirePayload(t, b))
		if err != nil {
			t.Fatal(err)
		}
		st.DeliverPayload(&view)
	}
	st, ref, logged, loggedRef := NewStore(), NewStore(), NewStore(), NewStore()
	var drawn, crcs []fevent.Event
	const batches = 30
	for seq := uint64(1); seq <= batches; seq++ {
		sw, ts := uint16(1+seq%3), sim.Time(seq)*sim.Millisecond
		b := &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: seq, Events: p.events(40, flows, 3, ts, 0)}
		for i := range b.Events {
			b.Events[i].SwitchID = sw
			if b.Events[i].Hash == b.Events[i].Flow.Hash() {
				t.Fatalf("batch %d event %d drew its key's CRC", seq, i)
			}
		}
		c := canon(b)
		switch seq % 3 {
		case 0:
			st.Deliver(b)
			ref.Deliver(c)
		case 1:
			payload(st, b)
			payload(ref, c)
		default:
			importEvents(t, st, b.Events)
			importEvents(t, ref, c.Events)
		}
		if seq <= batches/2 {
			drawn, crcs = append(drawn, b.Events...), append(crcs, c.Events...)
		}
		if _, err := w.Append(wirePayload(t, b), false); err != nil {
			t.Fatal(err)
		}
		payload(logged, b)
		payload(loggedRef, c)
		if seq == batches/2 {
			cut, err := w.CutSegment()
			if err == nil {
				err = w.InstallSnapshot(cut, logged.EncodeSnapshot())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	same := func(how string, got, want *Store) {
		t.Helper()
		evs := got.Query(Filter{})
		for i, e := range evs {
			if e.Hash != e.Flow.Hash() {
				t.Fatalf("%s: event %d answers hash %08x, its key's CRC is %08x", how, i, e.Hash, e.Flow.Hash())
			}
		}
		if wantEvs := want.Query(Filter{}); !slices.Equal(evs, wantEvs) {
			t.Fatalf("%s: Query answers %d events, the CRC-fed store %d, first diff at %d", how, len(evs), len(wantEvs), firstDiff(evs, wantEvs))
		}
		img := got.AppendImage(nil, &Filter{}, nil)
		if !bytes.Equal(img, want.AppendImage(nil, &Filter{}, nil)) || !bytes.Equal(img, batchImage(evs)) {
			t.Fatalf("%s: AppendImage writes other records than the CRC-fed store", how)
		}
		paths := 0
		for i := range flows {
			f := modelFlow(i)
			path := got.PathOf(f)
			if !reflect.DeepEqual(path, want.PathOf(f)) {
				t.Fatalf("%s: PathOf(%v) = %v, the CRC-fed store's %v", how, f, path, want.PathOf(f))
			}
			paths += len(path)
		}
		if paths == 0 {
			t.Fatalf("%s: no flow has a path", how)
		}
		if !bytes.Equal(got.EncodeSnapshot(), want.EncodeSnapshot()) {
			t.Fatalf("%s: the snapshot differs from the CRC-fed store's", how)
		}
	}
	roundTrip := func(st *Store) *Store {
		fresh := NewStore()
		if err := fresh.LoadSnapshot(st.EncodeSnapshot()); err != nil {
			t.Fatal(err)
		}
		return fresh
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recovered, _, err := RecoverStore(w)
	if err != nil {
		t.Fatal(err)
	}
	same("Deliver, DeliverPayload, ImportImage", st, ref)
	same("after a snapshot round trip", roundTrip(st), ref)
	same("WAL replay", recovered, loggedRef)
	same("WAL replay, after a snapshot round trip", roundTrip(recovered), loggedRef)
	n, err := st.RemoveImage(batchImage(drawn))
	if want := removeEvents(t, ref, crcs); err != nil || n != len(drawn) || want != n {
		t.Fatalf("RemoveImage of %d events carrying drawn hashes removed %d (%v), of their CRCs %d", len(drawn), n, err, want)
	}
	same("after RemoveImage", st, ref)
}
