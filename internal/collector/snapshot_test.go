package collector

import (
	"encoding/binary"
	"slices"
	"strings"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// TestDeliverDoesNotAllocate pins the append path: a full CEBP batch
// over flows the store already knows, into a block with room, touches
// the heap zero times.
func TestDeliverDoesNotAllocate(t *testing.T) {
	p := newPair(t, 1)
	b := &fevent.Batch{SwitchID: 3, Timestamp: sim.Millisecond, Events: p.events(fevent.DefaultBatchSize, 20, 1, sim.Millisecond, 0)}
	p.st.Deliver(b) // first sight of the flows and the switch
	if n := testing.AllocsPerRun(100, func() { p.st.Deliver(b) }); n != 0 {
		t.Fatalf("Deliver of %d events over seen flows allocates %v times", len(b.Events), n)
	}
	if p.st.Len() >= blockLen {
		t.Fatalf("the run filled the block (%d events): it did not measure the non-full case", p.st.Len())
	}
}

// TestLoadSnapshotRejects feeds LoadSnapshot every malformed image the
// layout admits and requires an error that names the fault and a store
// left exactly as it was.
func TestLoadSnapshotRejects(t *testing.T) {
	p := newPair(t, 7)
	for seq := uint64(1); seq <= 3; seq++ {
		p.deliver(uint16(seq), seq, sim.Time(seq)*sim.Millisecond, p.events(40, 6, 3, sim.Time(seq)*sim.Millisecond, 0))
	}
	good := p.st.EncodeSnapshot()
	le := binary.LittleEndian
	const seenCountOff, flowCountOff, eventCountOff = 12, 16, 20
	seenOff := snapHeaderLen
	flowOff := seenOff + int(le.Uint32(good[seenCountOff:]))*snapSeenLen
	n := int(le.Uint32(good[eventCountOff:]))
	tsOff := flowOff + int(le.Uint32(good[flowCountOff:]))*snapFlowLen
	linkOff := tsOff + n*8
	typOff := linkOff + n*4 + n*2
	recOff := typOff + n
	if n != p.st.Len() || len(good) != recOff+n*fevent.RecordLen {
		t.Fatalf("layout arithmetic is off: %d events, records at %d in %d bytes", n, recOff, len(good))
	}

	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	put32 := func(off int, v uint32) []byte {
		return mutate(func(b []byte) []byte { le.PutUint32(b[off:], v); return b })
	}
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty", "magic", nil},
		{"bad magic", "magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"NSS1 image", "magic", mutate(func(b []byte) []byte { b[3] = '1'; return b })},
		{"cut inside header", "header truncated", good[:snapHeaderLen-1]},
		{"cut after header", "header promises", good[:seenOff]},
		{"cut inside dedup section", "header promises", good[:flowOff-1]},
		{"cut after dedup section", "header promises", good[:flowOff]},
		{"cut after flow section", "header promises", good[:tsOff]},
		{"cut after a column", "header promises", good[:linkOff]},
		{"one byte short", "header promises", good[:len(good)-1]},
		{"trailing byte", "header promises", append(append([]byte(nil), good...), 0)},
		{"event count one high", "header promises", put32(eventCountOff, uint32(n+1))},
		{"event count one low", "header promises", put32(eventCountOff, uint32(n-1))},
		{"seen count beyond the data", "header promises", put32(seenCountOff, 1<<30)},
		{"flow count beyond the data", "header promises", put32(flowCountOff, 1<<30)},
		{"chain link to itself", "links forward", put32(linkOff+4*10, 11)},
		{"chain link past the end", "links forward", put32(linkOff+4*(n-1), uint32(n+5))},
		{"flow head zero", "heads at", put32(flowOff+pkt.FlowKeyLen, 0)},
		{"flow head past the end", "heads at", put32(flowOff+pkt.FlowKeyLen, uint32(n+1))},
		{"type column invalid", "invalid type", mutate(func(b []byte) []byte { b[typOff+5] = 0; return b })},
		{"type column out of range", "invalid type", mutate(func(b []byte) []byte { b[typOff+5] = 99; return b })},
		{"record type disagrees with column", "invalid type", mutate(func(b []byte) []byte { b[recOff+5*fevent.RecordLen] ^= 3; return b })},
	}
	for _, tc := range cases {
		err := p.st.LoadSnapshot(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		p.compare(6, 3) // untouched
	}
	if err := p.st.LoadSnapshot(good); err != nil {
		t.Fatalf("the unmodified image: %v", err)
	}
	p.compare(6, 3)
}

// TestLoadSnapshotFlowSectionAcrossProbeGroups loads a snapshot whose flow
// section spans several of the flow table's probe groups and lists one
// flow twice: first with a stale head (the flow's oldest event), in the
// first group, then with its true head in a later one. The later entry
// wins, the flow counts once, and the reloaded store answers a query by
// flow exactly as the live store does, for every flow.
func TestLoadSnapshotFlowSectionAcrossProbeGroups(t *testing.T) {
	const flows = 10 * probeGroup
	p := newPair(t, 29)
	for seq := uint64(1); seq <= 40; seq++ {
		ts := sim.Time(seq) * sim.Millisecond
		p.deliver(uint16(1+seq%4), seq, ts, p.events(fevent.DefaultBatchSize, flows, 4, ts, 0))
	}
	live := p.st
	snap := live.EncodeSnapshot()
	le := binary.LittleEndian
	flowOff := snapHeaderLen + int(le.Uint32(snap[12:]))*snapSeenLen
	n := int(le.Uint32(snap[16:]))
	if n < 3*probeGroup {
		t.Fatalf("%d flows fill fewer than three probe groups", n)
	}
	// The twice-listed flow: one in a later group with an older event.
	dup := -1
	var stale uint32
	for j := 2 * probeGroup; j < n && dup < 0; j++ {
		row := snap[flowOff+j*snapFlowLen:]
		link := le.Uint32(row[pkt.FlowKeyLen:])
		for oldest := link; oldest != 0; oldest = live.blocks[(oldest-1)/blockLen].prev[(oldest-1)%blockLen] {
			link = oldest
		}
		if link != le.Uint32(row[pkt.FlowKeyLen:]) {
			dup, stale = j, link
		}
	}
	if dup < 0 {
		t.Fatal("no flow past the second probe group has two events")
	}
	staleRow := le.AppendUint32(slices.Clone(snap[flowOff+dup*snapFlowLen:][:pkt.FlowKeyLen]), stale)
	img := slices.Concat(snap[:flowOff], staleRow, snap[flowOff:])
	le.PutUint32(img[16:], uint32(n+1))

	fresh := NewStore()
	if err := fresh.LoadSnapshot(img); err != nil {
		t.Fatal(err)
	}
	if fresh.flows.n != live.flows.n {
		t.Fatalf("reloaded table holds %d flows, live %d", fresh.flows.n, live.flows.n)
	}
	for _, f := range live.Flows() {
		if got, want := fresh.Query(Filter{Flow: &f}), live.Query(Filter{Flow: &f}); !slices.Equal(got, want) {
			t.Fatalf("flow %v: reloaded store answers %d events, live %d", f, len(got), len(want))
		}
	}
}
