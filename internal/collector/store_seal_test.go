package collector

import (
	"math"
	"runtime"
	"testing"
	"unsafe"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// TestStoreModelSealWidths is the directed half for sealing: four blocks
// that seal at 2, 3, 4 and 5 B an event, then an open one. The first
// holds one flow, so its flow ids take no bits; the second seals with 256
// flows at 32 Ki events — 16 + 8 bits, exactly three bytes; every event
// of the third and the fourth is a new flow, so they seal past 2¹⁴ flows
// (16 + 15 bits) and past 2¹⁵ flows and 2¹⁶ events (17 + 16 bits), one
// bit over four bytes. The store is compared with the
// model before and after a snapshot round trip, which re-encodes byte
// for byte and seals the loaded blocks at the same widths, and after a
// RemoveImage whose survivors re-append from an open block into one.
func TestStoreModelSealWidths(t *testing.T) {
	p := newPair(t, 49)
	p.types = fevent.Types[:len(fevent.Types)-1] // an aggregate spike names no flow
	flowOf := func(i int) int {
		switch blk := i / blockLen; blk {
		case 0:
			return 0
		case 2, 3:
			return 256 + i - 2*blockLen
		}
		return i % 256
	}
	const n, flows = 4*blockLen + 3000, 256 + 2*blockLen
	for done, seq := 0, uint64(1); done < n; seq++ {
		size := min(1+int(seq*97%370), n-done)
		ts := sim.Millisecond + sim.Time(seq)*10*sim.Microsecond
		evs := p.events(size, flows, 3, ts, 0)
		for i := range evs {
			evs[i].Flow = modelFlow(flowOf(done + i))
			evs[i].Hash = evs[i].Flow.Hash()
		}
		if seq%2 == 0 {
			p.deliver(uint16(1+seq%3), seq, ts, evs)
		} else {
			p.deliverPayload(uint16(1+seq%3), seq, ts, evs)
		}
		done += size
	}
	widths := func(when string) {
		t.Helper()
		if len(p.st.blocks) != 5 || p.st.blocks[4].open == nil {
			t.Fatalf("%s: %d blocks, the last open: %v", when, len(p.st.blocks), len(p.st.blocks) > 0 && p.st.blocks[len(p.st.blocks)-1].open != nil)
		}
		for k, want := range [][3]uint8{{2, 15, 0}, {3, 16, 8}, {4, 16, 15}, {5, 17, 16}} {
			if b := p.st.blocks[k]; [3]uint8{b.w, b.pbits, b.fbits} != want {
				t.Fatalf("%s: block %d sealed at %d B (%d + %d bits), want %d B (%d + %d)", when, k, b.w, b.pbits, b.fbits, want[0], want[1], want[2])
			}
		}
	}
	widths("as stored")
	p.compare(flows, 3)
	p.reload()
	widths("reloaded")
	p.compare(flows, 3)

	// Take a few events out of the first block: every survivor re-appends,
	// so the first new block seals while the old open block is read.
	p.remove(append([]fevent.Event(nil), p.m.events[:5]...))
	if b := p.st.blocks[len(p.st.blocks)-1]; b.open == nil || b.n != n-5-4*blockLen {
		t.Fatalf("after RemoveImage the last block holds %d events, open: %v", b.n, b.open != nil)
	}
	p.compare(flows, 3)
	p.reload()
	p.compare(flows, 3)
}

// TestSealedLinksAtEveryWidth seals blocks of chosen links at every width
// from 1 B to 8 B, positions and ids at the limits of their bits, and
// reads every entry back, the last ones — within 8 B of the column's
// end — included.
func TestSealedLinksAtEveryWidth(t *testing.T) {
	for _, c := range []struct {
		events, flows int
		w             uint8
	}{
		{100, 1, 1}, {255, 2, 2}, {1 << 15, 1 << 8, 3}, {1<<16 - 1, 1 << 16, 4},
		{1 << 20, 1 << 18, 5}, {1 << 30, 1 << 15, 6}, {math.MaxUint32, 1 << 22, 7}, {math.MaxUint32, math.MaxUint32 + 1, 8},
	} {
		o := new(wideLinks)
		b := &block{n: blockLen, open: o}
		for i := range blockLen {
			o.prev[i] = uint32(c.events - i*7919%c.events)
			o.fid[i] = uint32((c.flows - 1) - i*104729%c.flows)
		}
		o.prev[1], o.fid[blockLen-1], o.prev[blockLen-2] = 0, 0, 0
		want := *o
		if got := b.seal(c.events, c.flows); b.w != c.w || got != pageBytes(blockLen*int(c.w)) || b.open != nil {
			t.Fatalf("%d events over %d flows: sealed at %d B (%d allocated), want %d B", c.events, c.flows, b.w, got, c.w)
		}
		for i := range blockLen {
			if prev, fid := b.links(i); prev != want.prev[i] || fid != want.fid[i] {
				t.Fatalf("%d B entries: event %d links (%d, %d), sealed (%d, %d)", c.w, i, prev, fid, want.prev[i], want.fid[i])
			}
		}
	}
}

// TestSealedBlockCost pins what a block costs: its record columns at
// 11 B an event and, once sealed, its links at w B an event, behind a
// header of at most 1 KiB — what the allocator hands out for opening and
// sealing one, and no more than MemoryBytes charges for it.
func TestSealedBlockCost(t *testing.T) {
	if hdr := unsafe.Sizeof(block{}); hdr > 1024 {
		t.Errorf("a block header is %d B, want at most 1 KiB", hdr)
	}
	if cols := unsafe.Sizeof(blockCols{}); cols != blockLen*(1+tailLen) || cols%8192 != 0 {
		t.Errorf("a block's record columns are %d B, want %d in whole pages", cols, blockLen*(1+tailLen))
	}
	st := NewStore()
	st.newBlock() // the scratch, allocated once a store
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b := st.newBlock()
	b.n = blockLen
	charged := blockMemCost + b.seal(3*blockLen, 300)
	runtime.ReadMemStats(&after)
	w, alloc := int64(b.w), int64(after.TotalAlloc-before.TotalAlloc)
	if w != 4 || int64(len(b.packed)) != blockLen*w {
		t.Fatalf("sealed at %d B an event into %d B, want 4 B (16 + 9 bits)", w, len(b.packed))
	}
	if sealed := blockLen * (w + 1 + tailLen); alloc < sealed || alloc > sealed+1024 || charged < alloc || charged > sealed+1024 {
		t.Errorf("a sealed block allocated %d B and is charged %d, want both in [%d, %d + 1 KiB]", alloc, charged, sealed, sealed)
	}
	if int64(unsafe.Sizeof(wideLinks{})) != blockLen*8 || wideMemCost != blockLen*8 {
		t.Errorf("the open block's scratch is %d B, charged %d: want 8 B an event", unsafe.Sizeof(wideLinks{}), wideMemCost)
	}
}
