package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// rng is SplitMix64: the inputs must be a pure function of the seed on
// every Go version, which math/rand does not promise for its helpers.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float returns a uniform value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// intn returns a uniform value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// batchSizeCycle is the repeating batch-size pattern of the collector
// workloads: full CEBP batches under load interleaved with the partial
// ones an idle-flush timeout produces, so per-frame and per-event costs
// both carry weight.
var batchSizeCycle = [8]int{50, 50, 8, 50, 1, 50, 8, 50}

const (
	genSwitches = 10
	// batchSpacing is the switch-clock distance between generated batches.
	batchSpacing = 10 * sim.Microsecond
)

// genTypes is the event-type mix, one draw per event.
var genTypes = [10]fevent.Type{
	fevent.TypeCongestion, fevent.TypeCongestion, fevent.TypeCongestion, fevent.TypeCongestion,
	fevent.TypeDrop, fevent.TypeDrop, fevent.TypeDrop,
	fevent.TypePathChange, fevent.TypePathChange,
	fevent.TypePause,
}

var genDropCodes = [4]fevent.DropCode{
	fevent.DropMMUCongestion, fevent.DropInterSwitch, fevent.DropNoRoute, fevent.DropACLDeny,
}

// genFlow derives flow i of the seed's flow table; distinct i give
// distinct keys (the source address carries i).
func genFlow(seed uint64, i int) pkt.FlowKey {
	h := rng{s: seed ^ uint64(i)*0xa0761d6478bd642f}
	v := h.next()
	proto := pkt.ProtoTCP
	if v&7 == 0 {
		proto = pkt.ProtoUDP
	}
	return pkt.FlowKey{
		SrcIP:   pkt.IP(10, 0, 0, 0) + uint32(i),
		DstIP:   pkt.IP(10, 128, 0, 0) + uint32(v>>8)&0xffff,
		SrcPort: uint16(1024 + (v>>24)%60000),
		DstPort: uint16(80 + (v>>44)%16),
		Proto:   proto,
	}
}

// zipf1 samples ranks 0..n-1 with probability ∝ 1/(rank+1) by inverting
// the exact cumulative distribution (math/rand's Zipf needs s > 1).
type zipf1 struct{ cdf []float64 }

func newZipf1(n int) *zipf1 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / float64(i+1)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &zipf1{cdf: cdf}
}

func (z *zipf1) rank(u float64) int {
	i := sort.SearchFloat64s(z.cdf, u)
	if i >= len(z.cdf) {
		i = len(z.cdf) - 1
	}
	return i
}

// genBatches builds the collector workloads' input: at least events
// events (the last size-cycle is completed) in batches whose sizes follow
// batchSizeCycle, from genSwitches switch IDs, over flows flows with
// Zipf(1) popularity and four event types. Only the fields the 24-byte
// wire record carries are set, so an event survives a frame or WAL round
// trip unchanged. Seq is left 0 for the caller.
func genBatches(seed uint64, events, flows int) []*fevent.Batch {
	r := rng{s: seed}
	zipf := newZipf1(flows)
	table := make([]pkt.FlowKey, flows)
	for i := range table {
		table[i] = genFlow(seed, i)
	}
	var sizes []int
	total := 0
	for total < events {
		for _, n := range batchSizeCycle {
			sizes = append(sizes, n)
			total += n
		}
	}
	batches := make([]*fevent.Batch, len(sizes))
	for bi, n := range sizes {
		// One allocation a batch, as an exporter makes them: a batch the
		// client still references after its ack must not keep every other
		// batch's events alive and in live_heap_mb.
		b := &fevent.Batch{
			SwitchID:  uint16(1 + r.intn(genSwitches)),
			Timestamp: sim.Time(bi+1) * batchSpacing,
			Events:    make([]fevent.Event, n),
		}
		for i := range b.Events {
			e := &b.Events[i]
			v := r.next()
			e.Type = genTypes[v%uint64(len(genTypes))]
			e.Flow = table[zipf.rank(r.float())]
			e.SwitchID, e.Timestamp = b.SwitchID, b.Timestamp
			e.Count = uint16(1 + (v>>8)%128)
			e.Hash = e.Flow.Hash() ^ uint32(e.Type)
			port := uint8((v >> 16) % 32)
			switch e.Type {
			case fevent.TypeDrop:
				e.IngressPort, e.EgressPort = port, uint8((v>>24)%32)
				e.DropCode = genDropCodes[(v>>32)%uint64(len(genDropCodes))]
				if e.DropCode == fevent.DropACLDeny {
					e.ACLRule = uint8(1 + (v>>40)%8)
				}
			case fevent.TypeCongestion:
				e.EgressPort, e.Queue = port, uint8((v>>24)%8)
				e.QueueLatencyUs = uint16(10 + (v>>32)%2000)
			case fevent.TypePathChange:
				e.IngressPort, e.EgressPort = port, uint8((v>>24)%32)
			case fevent.TypePause:
				e.EgressPort, e.Queue = port, uint8((v>>24)%8)
			}
		}
		batches[bi] = b
	}
	return batches
}

func countEvents(batches []*fevent.Batch) int {
	n := 0
	for _, b := range batches {
		n += len(b.Events)
	}
	return n
}

// frameHeaderLen is the length+CRC prefix collector.WriteFrame puts in
// front of the payload (sequence word + batch body) the WAL stores.
const frameHeaderLen = 8

// framePayload encodes b with the production frame writer and returns a
// copy of the payload part — the bytes the ingest server appends to its
// WAL and recovery hands to collector.DecodePayload.
func framePayload(buf *bytes.Buffer, b *fevent.Batch) ([]byte, error) {
	buf.Reset()
	if err := collector.WriteFrame(buf, b); err != nil {
		return nil, err
	}
	return append([]byte(nil), buf.Bytes()[frameHeaderLen:]...), nil
}

// digest is an order-sensitive multiply-xor hash (FNV-64a's constants,
// eight bytes a step) over every event's 24-byte wire record, switch and
// timestamp. experiments.CanonicalDigest formats and sorts a line per
// event, which is too slow to run every round over millions of events;
// the collector paths here preserve ingestion order, so no sort is
// needed.
type digest struct {
	h   uint64
	rec []byte
}

func newDigest() *digest { return &digest{h: 14695981039346656037} }

func (d *digest) add(e *fevent.Event) {
	const prime = 1099511628211
	d.rec = e.AppendRecord(d.rec[:0])
	h, i := d.h, 0
	for ; i+8 <= len(d.rec); i += 8 {
		h = (h ^ binary.LittleEndian.Uint64(d.rec[i:])) * prime
	}
	for ; i < len(d.rec); i++ {
		h = (h ^ uint64(d.rec[i])) * prime
	}
	h = (h ^ uint64(e.SwitchID)) * prime
	d.h = (h ^ uint64(e.Timestamp)) * prime
}

// storeDigest hashes a store's events in ingestion order. ExportWhere
// with a predicate that keeps nothing visits every event without copying
// the store.
func storeDigest(st *collector.Store) uint64 {
	d := newDigest()
	st.ExportWhere(func(e *fevent.Event) bool { d.add(e); return false })
	return d.h
}

// Query kinds of the query_mixed list.
const (
	kindFlow  = iota // query flow=…: point lookup through the flow index
	kindIndex        // count switch=S type=congestion: switch-index scan
	kindScan         // count since=a until=b: full scan (no time index)
	numKinds
)

var kindNames = [numKinds]string{"flow", "index", "scan"}

// query is one line of the list plus the row count (or count value) the
// store must answer with.
type query struct {
	kind int
	line string
	wire []byte // line + newline, as sent
	want int
}

// genQueries builds the closed-loop query list: of every 100 queries, 94
// flow lookups (flows drawn uniformly from flows), five index scans and
// one 1 % time-slice scan over [0, tMax]. want is filled in by the
// caller. The issue's mix had five full scans in a hundred; a scan
// streams the whole event array, the one operation here bound by DRAM
// bandwidth, and under the neighbours' load it alone moved from 7.9 to
// 12.6 ms and took the round rate's spread over ten runs to 38 %.
func genQueries(seed uint64, n int, flows []pkt.FlowKey, tMax sim.Time) []query {
	r := rng{s: seed ^ 0x5155455259} // "QUERY": a stream apart from the events'
	qs := make([]query, n)
	for i := range qs {
		switch {
		case i%100 == 99:
			width := tMax / 100
			since := sim.Time(r.next() % uint64(tMax-width))
			qs[i] = query{kind: kindScan, line: fmt.Sprintf("count since=%d until=%d", since, since+width)}
		case i%20 == 9:
			qs[i] = query{kind: kindIndex, line: fmt.Sprintf("count switch=%d type=congestion", 1+r.intn(genSwitches))}
		default:
			f := flows[r.intn(len(flows))]
			proto := "tcp"
			if f.Proto == pkt.ProtoUDP {
				proto = "udp"
			}
			qs[i] = query{kind: kindFlow, line: fmt.Sprintf("query flow=%s:%s:%d:%s:%d",
				proto, pkt.IPString(f.SrcIP), f.SrcPort, pkt.IPString(f.DstIP), f.DstPort)}
		}
		qs[i].wire = []byte(qs[i].line + "\n")
	}
	return qs
}

// distinctFlows lists the flows of batches in first-appearance order
// (Store.Flows ranges over a map, so its order is not reproducible).
func distinctFlows(batches []*fevent.Batch) []pkt.FlowKey {
	seen := make(map[pkt.FlowKey]struct{})
	var out []pkt.FlowKey
	for _, b := range batches {
		for i := range b.Events {
			f := b.Events[i].Flow
			if _, ok := seen[f]; !ok {
				seen[f] = struct{}{}
				out = append(out, f)
			}
		}
	}
	return out
}
