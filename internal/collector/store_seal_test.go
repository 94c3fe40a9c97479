package collector

import (
	"bytes"
	"math"
	"runtime"
	"slices"
	"testing"
	"unsafe"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// TestStoreModelSealWidths is the directed half for link widths, which
// are fixed when a block opens: five blocks at 4 B an event (15 + 14
// bits: no events, no flows before it), 4 B (16 + 15), exactly 4 B
// (16 + 16: the first block's one flow and the second's 16 Ki new ones)
// and one bit over four bytes twice (17 + 16), the last open. Hashes are
// delivered up to 31 off their flow key's CRC, which the store answers
// with. The store is compared with the model before and after a snapshot
// round trip, which re-encodes byte for byte and opens the loaded blocks
// at the same widths, and after a RemoveImage whose survivors re-append
// into blocks opened at the widths of the smaller store.
func TestStoreModelSealWidths(t *testing.T) {
	p := newPair(t, 49)
	p.types = fevent.Types[:len(fevent.Types)-1] // an aggregate spike names no flow
	p.hashes = hashDeltas
	flowOf := func(i int) int {
		switch i / blockLen {
		case 0:
			return 0
		case 1:
			return 1 + i - blockLen // 1…16384
		case 3:
			return 1 + i - 2*blockLen // 16385…32768
		}
		return i % 256
	}
	const n, flows = 4*blockLen + 3000, 1 + 2*blockLen
	for done, seq := 0, uint64(1); done < n; seq++ {
		size := min(1+int(seq*97%370), n-done)
		ts := sim.Millisecond + sim.Time(seq)*10*sim.Microsecond
		evs := p.events(size, flows, 3, ts, 0)
		for i := range evs {
			evs[i].Flow = modelFlow(flowOf(done + i))
			evs[i].Hash = p.hash(evs[i].Flow)
		}
		if seq%2 == 0 {
			p.deliver(uint16(1+seq%3), seq, ts, evs)
		} else {
			p.deliverPayload(uint16(1+seq%3), seq, ts, evs)
		}
		done += size
	}
	if got := len(p.st.flows.keys); got != flows {
		t.Fatalf("%d flows stored, want %d", got, flows)
	}
	widths := func(when string) {
		t.Helper()
		if len(p.st.blocks) != 5 || p.st.blocks[4].n != 3000 {
			t.Fatalf("%s: %d blocks", when, len(p.st.blocks))
		}
		for k, want := range [][3]uint8{{4, 15, 14}, {4, 16, 15}, {4, 16, 16}, {5, 17, 16}, {5, 17, 16}} {
			if b := p.st.blocks[k]; [3]uint8{b.w, b.pbits, b.fbits} != want {
				t.Fatalf("%s: block %d opened at %d B (%d + %d bits), want %d B (%d + %d)", when, k, b.w, b.pbits, b.fbits, want[0], want[1], want[2])
			}
		}
	}
	widths("as stored")
	p.compare(flows, 3)
	p.reload()
	widths("reloaded")
	p.compare(flows, 3)

	// Take a few events out of the first block: every survivor re-appends
	// into blocks opened afresh, the open one included.
	p.remove(append([]fevent.Event(nil), p.m.events[:5]...))
	if b := p.st.blocks[len(p.st.blocks)-1]; b.n != n-5-4*blockLen {
		t.Fatalf("after RemoveImage the last block holds %d events", b.n)
	}
	p.compare(flows, 3)
	p.reload()
	p.compare(flows, 3)
}

// TestStoreModelHashDraws model-checks every read with hashes delivered
// each of the three ways — one a flow, its key's CRC, as every producer
// sets them; within 31 of it; at random — over two blocks, before and
// after a snapshot round trip, then after a RemoveImage whose image
// carries the first event of two flows with a hash drawn the same way,
// and once more after a round trip. The store answers every read with
// the key's CRC whatever the draw, as the model does.
func TestStoreModelHashDraws(t *testing.T) {
	const flows, switches = 40, 3
	for draw := range hashDraws {
		p := newPair(t, int64(500+draw))
		p.hashes = draw
		for done, seq := 0, uint64(1); done < blockLen+2000; seq++ {
			ts := sim.Time(seq) * 10 * sim.Microsecond
			evs := p.events(min(1+int(seq*31%200), blockLen+2000-done), flows, switches, ts, 0)
			if seq%2 == 0 {
				p.deliver(uint16(1+seq%switches), seq, ts, evs)
			} else {
				p.deliverPayload(uint16(1+seq%switches), seq, ts, evs)
			}
			done += len(evs)
		}
		p.compare(flows, switches)
		p.reload()
		p.compare(flows, switches)

		// The first events of two flows, each hash drawn afresh: the fence
		// must take them as their keys' CRCs to find them.
		var drop []fevent.Event
		for _, f := range p.st.Flows()[:2] {
			e := p.m.Query(Filter{Flow: &f})[0]
			e.Hash = p.hash(f)
			drop = append(drop, e)
		}
		p.remove(drop)
		if p.st.Len() != blockLen+2000-2 {
			t.Fatalf("draw %d: %d events left after removing 2 of %d", draw, p.st.Len(), blockLen+2000)
		}
		p.compare(flows, switches)
		p.reload()
		p.compare(flows, switches)
	}
}

// TestLoadedBlocksEqualLive: a loaded image holds exactly the live
// store's blocks — links at the same widths, byte for byte, the same
// typ and tail columns, runs, summaries and hints — and the same
// dictionary, and is charged the same bytes of blocks. The store spans
// four blocks, mixes hash draws and has been through a RemoveImage, so
// its flows' ids were assigned twice.
func TestLoadedBlocksEqualLive(t *testing.T) {
	const flows, switches = 3000, 4
	p := newPair(t, 77)
	for seq := uint64(1); p.st.Len() < 3*blockLen+500; seq++ {
		p.hashes = hashDraw(seq % uint64(hashDraws))
		ts := sim.Time(seq) * sim.Microsecond
		p.deliverPayload(uint16(1+seq%switches), seq, ts, p.events(370, flows, switches, ts, 0))
	}
	p.remove(append(slices.Clone(p.m.events[:300]), p.m.events[blockLen:blockLen+300]...))
	live, loaded := p.st, NewStore()
	if err := loaded.LoadSnapshot(live.EncodeSnapshot()); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(loaded.flows.keys, live.flows.keys) {
		t.Fatal("the loaded dictionary's keys differ from the live store's")
	}
	if len(loaded.blocks) != len(live.blocks) || loaded.blockBytes != live.blockBytes {
		t.Fatalf("loaded %d blocks charged %d B, live %d charged %d B", len(loaded.blocks), loaded.blockBytes, len(live.blocks), live.blockBytes)
	}
	for k, a := range live.blocks {
		b := loaded.blocks[k]
		switch {
		case [3]uint8{a.w, a.pbits, a.fbits} != [3]uint8{b.w, b.pbits, b.fbits}:
			t.Fatalf("block %d: loaded at %d B (%d + %d bits), live at %d B (%d + %d)", k, b.w, b.pbits, b.fbits, a.w, a.pbits, a.fbits)
		case !bytes.Equal(a.packed, b.packed):
			t.Fatalf("block %d: the loaded links differ", k)
		case *a.blockCols != *b.blockCols:
			t.Fatalf("block %d: the loaded typ or tail column differs", k)
		case !slices.Equal(a.runs, b.runs) || !slices.Equal(a.sum, b.sum) || a.hint != b.hint:
			t.Fatalf("block %d: the loaded runs, summary or hints differ", k)
		case a.n != b.n || a.minTs != b.minTs || a.maxTs != b.maxTs:
			t.Fatalf("block %d: loaded %d events in [%d, %d], live %d in [%d, %d]", k, b.n, b.minTs, b.maxTs, a.n, a.minTs, a.maxTs)
		}
	}
}

// TestSealedLinksAtEveryWidth opens blocks at every width a store can
// give them, 4 B to 8 B, writes every entry with positions and ids at
// the limits of their bits, and reads every entry back, the last ones —
// within 8 B of the column's end — included.
func TestSealedLinksAtEveryWidth(t *testing.T) {
	for _, c := range []struct {
		events, flows   int
		w, pbits, fbits uint8
	}{
		{0, 0, 4, 15, 14}, // a store's first block
		{1<<17 - blockLen - 1, 1<<15 - blockLen, 4, 17, 15},
		{1<<17 - blockLen, 1<<15 - blockLen, 5, 18, 15},
		{1 << 22, 1 << 20, 6, 23, 21},
		{1 << 26, 1 << 24, 7, 27, 25},
		{math.MaxUint32, math.MaxUint32, 8, 32, 32}, // each capped at 32 bits
	} {
		b := openBlock(c.events, c.flows)
		if [3]uint8{b.w, b.pbits, b.fbits} != [3]uint8{c.w, c.pbits, c.fbits} || len(b.packed) != blockLen*int(c.w) {
			t.Fatalf("%d events over %d flows: opened at %d B (%d + %d bits) into %d B, want %d B (%d + %d)", c.events, c.flows, b.w, b.pbits, b.fbits, len(b.packed), c.w, c.pbits, c.fbits)
		}
		pmax, fmax := uint64(1)<<c.pbits-1, uint64(1)<<c.fbits-1
		var prev, fid [blockLen]uint32
		for i := range blockLen {
			prev[i], fid[i] = uint32(pmax-uint64(i)*7919%(pmax+1)), uint32(fmax-uint64(i)*104729%(fmax+1))
		}
		prev[1], fid[blockLen-1], prev[blockLen-2] = 0, 0, 0
		for i := range blockLen {
			b.setLinks(i, prev[i], fid[i])
		}
		for i := range blockLen {
			if p, f := b.links(i); p != prev[i] || f != fid[i] {
				t.Fatalf("%d B entries: event %d links (%d, %d), written (%d, %d)", c.w, i, p, f, prev[i], fid[i])
			}
		}
	}
}

// TestSealedBlockCost pins what a block costs: its record columns at
// 7 B an event and its links at w B an event, behind a header of at most
// 1 KiB — what the allocator hands out for opening one, and no more than
// MemoryBytes charges for it.
func TestSealedBlockCost(t *testing.T) {
	if hdr := unsafe.Sizeof(block{}); hdr > 1024 {
		t.Errorf("a block header is %d B, want at most 1 KiB", hdr)
	}
	if cols := unsafe.Sizeof(blockCols{}); tailLen != 6 || cols != blockLen*7 || cols%8192 != 0 {
		t.Errorf("a block's record columns are %d B, want %d in whole pages", cols, blockLen*7)
	}
	st := NewStore()
	st.n = 3 * blockLen
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := st.newBlock(300)
	runtime.ReadMemStats(&after)
	w, alloc := int64(b.w), int64(after.TotalAlloc-before.TotalAlloc)
	if w != 4 || int64(len(b.packed)) != blockLen*w {
		t.Fatalf("opened at %d B an event into %d B, want 4 B (17 + 15 bits)", w, len(b.packed))
	}
	if opened := blockLen * (w + 1 + tailLen); alloc < opened || alloc > opened+1024 || st.blockBytes < alloc || st.blockBytes > opened+1024 {
		t.Errorf("an opened block allocated %d B and is charged %d, want both in [%d, %d + 1 KiB]", alloc, st.blockBytes, opened, opened)
	}
}
