package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
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

// snapBlock is where a well-formed image holds one block: its header,
// its run table and its three columns, and its events and entry width.
type snapBlock struct{ hdr, runs, packed, typ, tail, n, w int }

// blocksOf returns where a well-formed snapshot image holds each block.
func blocksOf(img []byte) []snapBlock {
	le := binary.LittleEndian
	seen, flows, events := int(le.Uint32(img[12:])), int(le.Uint32(img[16:])), int(le.Uint32(img[20:]))
	at := snapHeaderLen + seen*snapSeenLen + flows*snapFlowLen
	var out []snapBlock
	for done := 0; done < events; done += blockLen {
		b := snapBlock{hdr: at, runs: at + snapBlockHdrLen, n: min(blockLen, events-done), w: (int(img[at+4]) + int(img[at+5]) + 7) / 8}
		b.packed = b.runs + int(le.Uint32(img[at:]))*snapRunLen
		b.typ = b.packed + b.n*b.w
		b.tail = b.typ + b.n
		at = b.tail + b.n*tailLen
		out = append(out, b)
	}
	return out
}

// withDuplicateFlow returns st's snapshot with the key of flow id listed
// a second time, as the last flow, heading at event head: an image every
// other check passes.
func withDuplicateFlow(st *Store, id int, head uint32) []byte {
	img := st.EncodeSnapshot()
	le := binary.LittleEndian
	flowOff := snapHeaderLen + int(le.Uint32(img[12:]))*snapSeenLen
	nf := int(le.Uint32(img[16:]))
	row := slices.Clone(img[flowOff+id*snapFlowLen:][:snapFlowLen])
	le.PutUint32(row[pkt.FlowKeyLen:], head)
	end := flowOff + nf*snapFlowLen
	out := slices.Concat(img[:end], row, img[end:])
	le.PutUint32(out[16:], uint32(nf+1))
	return out
}

// TestLoadSnapshotRejects feeds LoadSnapshot every malformed image the
// layout admits and requires an error that names the fault and a store
// left exactly as it was.
func TestLoadSnapshotRejects(t *testing.T) {
	const flows, switches = 30, 3
	p := newPair(t, 7)
	for seq := uint64(1); seq <= 3; seq++ {
		p.deliver(uint16(seq), seq, sim.Time(seq)*sim.Millisecond, p.events(40, flows, switches, sim.Time(seq)*sim.Millisecond, 0))
	}
	good := p.st.EncodeSnapshot()
	le := binary.LittleEndian
	const seenCountOff, flowCountOff, eventCountOff, runCountOff = 12, 16, 20, 24
	seenOff := snapHeaderLen
	flowOff := seenOff + int(le.Uint32(good[seenCountOff:]))*snapSeenLen
	nf := int(le.Uint32(good[flowCountOff:]))
	n, runs := int(le.Uint32(good[eventCountOff:])), int(le.Uint32(good[runCountOff:]))
	blk := blocksOf(good)
	if len(blk) != 1 {
		t.Fatalf("the image holds %d blocks, want 1", len(blk))
	}
	b := blk[0]
	blockOff, runOff, linkOff, typOff, tailsOff := b.hdr, b.runs, b.packed, b.typ, b.tail
	if n != p.st.Len() || runs < 3 || nf < flows || blockOff != flowOff+nf*snapFlowLen || int(le.Uint32(good[blockOff:])) != runs ||
		linkOff != runOff+runs*snapRunLen || b.w != 4 || len(good) != tailsOff+n*tailLen {
		t.Fatalf("layout arithmetic is off: %d events, %d runs, %d flows, %d B links, tails at %d in %d bytes", n, runs, nf, b.w, tailsOff, len(good))
	}
	lastRun := runOff + (runs-1)*snapRunLen
	// entry writes event i's link and flow id into an image's entry.
	entry := func(img []byte, i int, prev, fid uint32) {
		le.PutUint32(img[linkOff+4*i:], prev|fid<<15)
	}

	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), good...)) }
	put32 := func(off int, v uint32) []byte {
		return mutate(func(b []byte) []byte { le.PutUint32(b[off:], v); return b })
	}
	put16 := func(off int, v uint16) []byte {
		return mutate(func(b []byte) []byte { le.PutUint16(b[off:], v); return b })
	}
	// One run fewer, in the header and the bytes: the block's count is
	// then one more than the header has.
	oneRunShort := slices.Concat(good[:lastRun], good[lastRun+snapRunLen:])
	le.PutUint32(oneRunShort[runCountOff:], uint32(runs-1))
	// No events, and a run: the run table has no block to sit in.
	runWithoutBlock := append(NewStore().EncodeSnapshot(), make([]byte, snapRunLen)...)
	le.PutUint32(runWithoutBlock[runCountOff:], 1)
	// A flow per event over three blocks and one more event: the first
	// block's ids get 14 bits, so flow 16384, the second block's, does not
	// fit them; the fourth block's entries are 5 B (17 + 16 bits), so an
	// image cut inside them keeps what its header promises.
	oneFlowEach := NewStore()
	for i := 0; i <= 3*blockLen; i += 64 {
		evs := make([]fevent.Event, min(64, 3*blockLen+1-i))
		for j := range evs {
			evs[j] = fevent.Event{Type: fevent.TypePause, Flow: modelFlow(i + j)}
		}
		oneFlowEach.Deliver(&fevent.Batch{SwitchID: 1, Timestamp: 1, Events: evs})
	}
	wide := oneFlowEach.EncodeSnapshot()
	if b := blocksOf(wide); len(b) != 4 || b[3].w != 5 {
		t.Fatalf("a flow per event: %d blocks, the last at %d B an entry, want 4 at 5 B", len(b), b[len(b)-1].w)
	}
	idPastItsBits := slices.Clone(wide)
	le.PutUint32(idPastItsBits[blocksOf(wide)[0].packed:], blockLen<<15)
	swapSeen := mutate(func(b []byte) []byte {
		row := slices.Clone(b[seenOff : seenOff+snapSeenLen])
		copy(b[seenOff:], b[seenOff+snapSeenLen:seenOff+2*snapSeenLen])
		copy(b[seenOff+snapSeenLen:], row)
		return b
	})
	cases := []struct {
		name, want string
		data       []byte
	}{
		{"empty", "magic", nil},
		{"bad magic", "magic", mutate(func(b []byte) []byte { b[0] ^= 0xff; return b })},
		{"the previous layout's magic", `magic "NSS4"`, mutate(func(b []byte) []byte { b[3] = '4'; return b })},
		{"cut inside header", "header truncated", good[:snapHeaderLen-1]},
		{"cut after header", "header promises", good[:seenOff]},
		{"cut inside dedup section", "header promises", good[:flowOff-1]},
		{"cut after dedup section", "header promises", good[:flowOff]},
		{"cut after flow section", "header promises", good[:blockOff]},
		{"cut inside the run table", "header promises", good[:runOff+5]},
		{"cut after the links", "header promises", good[:typOff]},
		{"cut after the types", "header promises", good[:tailsOff]},
		{"one byte short", "header promises", good[:len(good)-1]},
		{"one byte short of 5 B links", "cut short", wide[:len(wide)-1]},
		{"trailing byte", "past its blocks", append(append([]byte(nil), good...), 0)},
		{"event count one high", "header promises", put32(eventCountOff, uint32(n+1))},
		{"event count one low", "heads at event 119 of 119", put32(eventCountOff, uint32(n-1))},
		{"seen count beyond the data", "header promises", put32(seenCountOff, 1<<30)},
		{"flow count beyond the data", "header promises", put32(flowCountOff, 1<<30)},
		{"run count one high", "runs", put32(runCountOff, uint32(runs+1))},
		{"run count one low", "runs", put32(runCountOff, uint32(runs-1))},
		{"dedup keys out of order", "does not follow", swapSeen},
		{"dedup key twice", "does not follow", mutate(func(b []byte) []byte {
			copy(b[seenOff+snapSeenLen:], b[seenOff:seenOff+snapSeenLen])
			return b
		})},
		{"flow key listed twice", "repeats", withDuplicateFlow(p.st, 3, 1)},
		{"flow key listed twice in a row", "repeats", withDuplicateFlow(p.st, nf-1, 1)},
		{"flow head zero", "heads at", put32(flowOff+pkt.FlowKeyLen, 0)},
		{"flow head past the end", "heads at", put32(flowOff+pkt.FlowKeyLen, uint32(n+1))},
		{"block's run count above the header's", "runs", oneRunShort},
		{"block's run count one high", "runs", put32(blockOff, uint32(runs+1))},
		{"block's run count past its events", "runs", put32(blockOff, uint32(n+1))},
		{"block without runs", "runs", put32(blockOff, 0)},
		{"runs without a block", "runs", runWithoutBlock},
		{"link bits one high", "packed at 16 + 14 bits", mutate(func(b []byte) []byte { b[blockOff+4]++; return b })},
		{"id bits one low", "packed at 15 + 13 bits", mutate(func(b []byte) []byte { b[blockOff+5]--; return b })},
		{"first run starts past 0", "starts at", put16(runOff, 1)},
		{"run starts where the last began", "starts at", put16(runOff+snapRunLen, 0)},
		{"run starts before the last", "starts at", put16(lastRun, le.Uint16(good[lastRun-snapRunLen:])-1)},
		{"run starts at the block's event count", "starts at", put16(lastRun, uint16(n))},
		{"run starts past the block's event count", "starts at", put16(lastRun, uint16(n+7))},
		{"two runs of one switch and stamp", "split one run", mutate(func(b []byte) []byte {
			copy(b[runOff+snapRunLen+2:runOff+2*snapRunLen], b[runOff+2:runOff+snapRunLen])
			return b
		})},
		{"chain link to itself", "links forward", mutate(func(b []byte) []byte { entry(b, 10, 11, 0); return b })},
		{"chain link past the end", "links forward", mutate(func(b []byte) []byte { entry(b, n-1, uint32(n+5), 0); return b })},
		{"event of a flow past the flow count", "is of flow", mutate(func(b []byte) []byte { entry(b, 5, 0, uint32(nf)); return b })},
		{"event of a flow past its block's id bits", "sets bits past the 15 + 14", idPastItsBits},
		{"an entry's unused bit set", "sets bits past", mutate(func(b []byte) []byte { b[linkOff+4*7+3] |= 0x40; return b })},
		{"the last entry's unused bit set", "sets bits past", mutate(func(b []byte) []byte { b[typOff-1] |= 0x80; return b })},
		{"type column invalid", "invalid type", mutate(func(b []byte) []byte { b[typOff+5] = 0; return b })},
		{"type column out of range", "invalid type", mutate(func(b []byte) []byte { b[typOff+5] = 99; return b })},
	}
	for _, tc := range cases {
		err := p.st.LoadSnapshot(tc.data)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one mentioning %q", tc.name, err, tc.want)
		}
		p.compare(flows, switches) // unchanged
	}
	if err := p.st.LoadSnapshot(good); err != nil {
		t.Fatalf("the unmodified image: %v", err)
	}
	p.compare(flows, switches)
}

// TestReadSnapshotStopsAtAReadError feeds the decoder a good image whose
// reader fails after every possible prefix, and after the whole image in
// place of the end: the reader's error — a torn or corrupt record, as the
// WAL reports it — must come back, with the store unchanged. So must a
// reader that yields more than the image.
func TestReadSnapshotStopsAtAReadError(t *testing.T) {
	const flows, switches = 30, 3
	p := newPair(t, 11)
	for seq := uint64(1); seq <= 3; seq++ {
		p.deliver(uint16(seq), seq, sim.Time(seq)*sim.Millisecond, p.events(40, flows, switches, sim.Time(seq)*sim.Millisecond, 0))
	}
	good := p.st.EncodeSnapshot()
	failed := errors.New("the record did not verify")
	for cut := 0; cut <= len(good); cut++ {
		if err := p.st.readSnapshot(&shortReader{data: good[:cut], err: failed}, len(good), nil); !errors.Is(err, failed) {
			t.Fatalf("the reader failed after %d of %d bytes: error %v", cut, len(good), err)
		}
		if !bytes.Equal(p.st.EncodeSnapshot(), good) {
			t.Fatalf("the reader failed after %d of %d bytes: the store changed", cut, len(good))
		}
	}
	if err := p.st.readSnapshot(&shortReader{data: append(slices.Clone(good), 0)}, len(good), nil); err == nil || !strings.Contains(err.Error(), "runs past") {
		t.Fatalf("a reader with a byte past the image: error %v", err)
	}
	p.compare(flows, switches)
}

// TestLoadSnapshotManyFlows reloads a store whose flow section spans
// several of the loader's read chunks, and requires the reloaded store to
// answer a query by flow exactly as the live store does, for every flow.
// The same image with one flow of a later chunk listed again at the end,
// heading at that flow's oldest event, is rejected: a flow is one
// dictionary entry.
func TestLoadSnapshotManyFlows(t *testing.T) {
	const flows, chunkRows = 640, snapChunk / snapFlowLen
	p := newPair(t, 29)
	for seq := uint64(1); seq <= 40; seq++ {
		ts := sim.Time(seq) * sim.Millisecond
		p.deliver(uint16(1+seq%4), seq, ts, p.events(fevent.DefaultBatchSize, flows, 4, ts, 0))
	}
	live := p.st
	n := len(live.flows.keys)
	if n <= 2*chunkRows {
		t.Fatalf("%d flows fill fewer than three read chunks of %d rows", n, chunkRows)
	}
	fresh := NewStore()
	if err := fresh.LoadSnapshot(live.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(fresh.Flows(), live.Flows()) {
		t.Fatalf("reloaded dictionary holds %d flows, live %d, or in another order", len(fresh.flows.keys), n)
	}
	for _, f := range live.Flows() {
		if got, want := fresh.Query(Filter{Flow: &f}), live.Query(Filter{Flow: &f}); !slices.Equal(got, want) {
			t.Fatalf("flow %v: reloaded store answers %d events, live %d", f, len(got), len(want))
		}
	}

	// The twice-listed flow: one past the second chunk with an older event.
	for id := 2 * chunkRows; id < n; id++ {
		head := live.flows.lookup(live.flows.keys[id][:]).head
		oldest := head
		for link := head; link != 0; link, _ = live.blocks[(link-1)/blockLen].links(int((link - 1) % blockLen)) {
			oldest = link
		}
		if oldest == head {
			continue
		}
		img := withDuplicateFlow(live, id, oldest)
		if err := fresh.LoadSnapshot(img); err == nil || !strings.Contains(err.Error(), "repeats") {
			t.Fatalf("flow %d listed twice: error %v, want one naming the repeat", id, err)
		}
		if !slices.Equal(fresh.Flows(), live.Flows()) {
			t.Fatal("the rejected image changed the store")
		}
		return
	}
	t.Fatal("no flow past the second read chunk has two events")
}
