package seqtrack

import (
	"math/rand"
	"strings"
	"testing"

	"netseer/internal/pkt"
)

// flowOf derives a unique, reconstructible 5-tuple for packet ID id, so a
// replayed entry can be checked against the exact packet that carried it.
func flowOf(id uint32) pkt.FlowKey {
	return pkt.FlowKey{
		SrcIP:   0x0a000000 | id>>16,
		DstIP:   0x0a800000 | id&0xffff,
		SrcPort: uint16(id * 2654435761 >> 16),
		DstPort: uint16(id * 40503),
		Proto:   uint8(17 + id%2),
	}
}

// modelSlot reproduces the ring's virtual-cursor slot assignment
// independently: a sequence seeded at start occupies slots continuously,
// with the 2³² wrap a plain +1 step — no aliasing for any ring size.
func modelSlot(start uint32, ringSize int) func(uint32) uint32 {
	return func(id uint32) uint32 {
		return uint32((uint64(start) + uint64(id-start)) % uint64(ringSize))
	}
}

// wantRecovered models, independently of the Port internals, which IDs of
// the gap [from, to] resolution must recover: IDs inside the newest
// ring-size window of the gap (Accept clips the rest) whose slot still
// holds them per the last-writer map.
func wantRecovered(from, to uint32, ringSize int, lastWriter map[uint32]uint32, slotOf func(uint32) uint32) uint64 {
	count := to - from + 1
	scanFrom := from
	if count > uint32(ringSize) {
		scanFrom = from + (count - uint32(ringSize))
	}
	var want uint64
	for g := scanFrom; ; g++ {
		if lastWriter[slotOf(g)] == g {
			want++
		}
		if g == to {
			break
		}
	}
	return want
}

// replayCase is one link's traffic: packet i carries ID start+i and is
// lost on the wire when drops[i]. A gap's notification reaches the
// upstream port after lag more packets have been tagged, so later traffic
// may overwrite a victim's slot first.
type replayCase struct {
	ringSize int
	start    uint32
	drops    []bool
	lag      int
}

// replayResult sums the run: IDs the downstream notified as lost, and how
// the upstream accounted for them.
type replayResult struct {
	lost, found, clipped, misses uint64
}

// runReplay drives c through Tag → drops → Strip → Notify → Accept →
// Resolve, resolving each accepted interval at once as a NIC does, and
// checks every gap: recovered ⊆ victims, each with its true 5-tuple and at
// most once; recovery exact per the independent last-writer model, and
// complete when no victim's slot was overwritten; found + clipped +
// misses = the gap; the two repeated copies dropped.
func runReplay(t *testing.T, c replayCase) replayResult {
	t.Helper()
	up, down := NewPort(c.ringSize), NewPort(c.ringSize)
	up.next = c.start
	slotOf := modelSlot(c.start, c.ringSize)
	lastWriter := make(map[uint32]uint32) // slot -> newest recorded ID
	victims := make(map[uint32]bool)
	var res replayResult
	type inFlight struct {
		due    int
		copies [][]byte
	}
	var notes []inFlight

	accept := func(copies [][]byte) {
		for i, payload := range copies {
			clipped, ok := up.Accept(payload)
			if ok != (i == 0) {
				t.Fatalf("copy %d of a notification: accepted = %v", i, ok)
			}
			if !ok {
				continue
			}
			n, _ := DecodeNotification(payload)
			newest := up.next - 1
			var found, misses uint64
			for up.Pending() {
				e, ok := up.Resolve()
				if !ok {
					misses++
					continue
				}
				if !victims[e.ID] || e.ID-n.FromID > n.ToID-n.FromID {
					t.Fatalf("recovered ID %d: not a victim of gap [%d,%d]", e.ID, n.FromID, n.ToID)
				}
				if e.Flow != flowOf(e.ID) {
					t.Fatalf("recovered flow for ID %d is %+v, want %+v — misattributed slot", e.ID, e.Flow, flowOf(e.ID))
				}
				delete(victims, e.ID)
				found++
			}
			if found+uint64(clipped)+misses != uint64(n.Count()) {
				t.Fatalf("gap [%d,%d] of %d: %d found + %d clipped + %d misses",
					n.FromID, n.ToID, n.Count(), found, clipped, misses)
			}
			if want := wantRecovered(n.FromID, n.ToID, c.ringSize, lastWriter, slotOf); found != want {
				t.Fatalf("gap [%d,%d] with ring %d recovered %d, want %d", n.FromID, n.ToID, c.ringSize, found, want)
			}
			if newest-n.FromID < uint32(c.ringSize) && found != uint64(n.Count()) {
				t.Fatalf("gap [%d,%d] recovered %d with no victim overwritten", n.FromID, n.ToID, found)
			}
			res.lost += uint64(n.Count())
			res.found += found
			res.clipped += uint64(clipped)
			res.misses += misses
		}
	}

	for i, dropped := range c.drops {
		id := c.start + uint32(i)
		p := &pkt.Packet{Kind: pkt.KindData, Flow: flowOf(id), WireLen: 64 + int(id%1200)}
		up.Tag(p)
		if p.SeqTag != id || p.WireLen != 64+int(id%1200)+pkt.NetSeerTagLen {
			t.Fatalf("packet %d tagged %d, %d B", i, p.SeqTag, p.WireLen)
		}
		lastWriter[slotOf(id)] = id
		if dropped {
			victims[id] = true
		} else if n, ok := down.Strip(p); ok {
			var copies [][]byte
			Notify(n, func(np *pkt.Packet) { copies = append(copies, np.Payload) })
			notes = append(notes, inFlight{due: i + c.lag, copies: copies})
		}
		for len(notes) > 0 && notes[0].due <= i {
			accept(notes[0].copies)
			notes = notes[1:]
		}
	}
	for _, n := range notes {
		accept(n.copies)
	}
	return res
}

// TestReplayMatchesTrackerLossesProperty is the §3.3 round trip: named
// cases pin the interval shapes (basic, wraparound, partial overwrite,
// longer than the ring, singleton); random trials vary gap positions, ring
// sizes and notification lag, including uint32 sequence wraparound and
// rings overwritten several times over. Every ID the downstream misses
// after synchronizing is notified (the final packet is always delivered).
func TestReplayMatchesTrackerLossesProperty(t *testing.T) {
	// pattern builds a drop mask: '.' delivered, 'x' dropped.
	pattern := func(s string) []bool {
		drops := make([]bool, len(s))
		for i := range s {
			drops[i] = s[i] == 'x'
		}
		return drops
	}
	for _, tc := range []struct {
		name string
		c    replayCase
		want replayResult
	}{
		{"basic", replayCase{ringSize: 16, drops: pattern("...xxxx..")},
			replayResult{lost: 4, found: 4}},
		{"wraparound", replayCase{ringSize: 16, start: 0xfffffffd, drops: pattern(".xxxx.")},
			replayResult{lost: 4, found: 4}},
		// The notification arrives after one more send: IDs 2 and 3 are
		// overwritten by then, 4 and 5 are not.
		{"partial-overwrite", replayCase{ringSize: 4, drops: pattern("..xxxx.."), lag: 1},
			replayResult{lost: 4, found: 2, misses: 2}},
		// 100 lost: 96 clipped on arrival, the oldest of the last 4 taken
		// by the trigger's own slot.
		{"longer-than-ring", replayCase{ringSize: 4, start: 3, drops: pattern("." + strings.Repeat("x", 100) + ".")},
			replayResult{lost: 100, found: 3, clipped: 96, misses: 1}},
		{"singleton", replayCase{ringSize: 4, start: 8, drops: pattern(".x.")},
			replayResult{lost: 1, found: 1}},
		// The first gap is exactly ID 0, which must not pass for a
		// repeated copy of the port's initial state.
		{"first-gap-is-id-0", replayCase{ringSize: 4, start: 0xffffffff, drops: pattern(".x.")},
			replayResult{lost: 1, found: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := runReplay(t, tc.c); got != tc.want {
				t.Fatalf("got %+v, want %+v", got, tc.want)
			}
		})
	}

	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 300; trial++ {
		ringSize := 1 + rng.Intn(200)
		total := ringSize + rng.Intn(4*ringSize)
		var start uint32
		switch trial % 3 {
		case 0:
			start = rng.Uint32()
		case 1:
			// Force the sequence across the uint32 wraparound.
			start = ^uint32(0) - uint32(rng.Intn(total))
		default:
			start = uint32(rng.Intn(100))
		}

		// Random bursts; the final packet always delivered so every gap
		// has a trigger.
		dropPct := 5 + rng.Intn(40)
		burstMax := 1 + rng.Intn(2*ringSize)
		drops := make([]bool, total)
		inBurst := 0
		for i := range drops {
			if inBurst > 0 {
				drops[i] = true
				inBurst--
			} else if rng.Intn(100) < dropPct {
				drops[i] = true
				inBurst = rng.Intn(burstMax)
			}
		}
		drops[total-1] = false
		// The tracker synchronizes on the first ID it receives, so drops
		// before that are invisible to it by design; count only the rest.
		firstRecv := 0
		for firstRecv < total && drops[firstRecv] {
			firstRecv++
		}
		var dropped uint64
		for i := firstRecv + 1; i < total-1; i++ {
			if drops[i] {
				dropped++
			}
		}

		lag := 0
		if trial%2 == 1 {
			lag = rng.Intn(2 * ringSize)
		}
		c := replayCase{ringSize: ringSize, start: start, drops: drops, lag: lag}
		if got := runReplay(t, c); got.lost != dropped {
			t.Fatalf("trial %d: downstream notified %d lost packets, dropped %d", trial, got.lost, dropped)
		}
	}
}

// TestReplayAfterFullRingWraparound pins the paper's worst case: a gap
// longer than the ring, here placed across the uint32 sequence boundary.
// Everything older than the newest ring-size IDs is clipped and counted,
// not guessed; the recovery is exactly the newest ring-size − 1 packets (the
// trigger consumed one slot) — on the boundary as well as away from it,
// since the virtual cursor makes the 2³² wrap alias-free for every ring
// size.
func TestReplayAfterFullRingWraparound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		ringSize := 2 + rng.Intn(64)
		gap := ringSize + 1 + rng.Intn(3*ringSize)
		straddle := trial%2 == 0
		var start uint32
		if straddle {
			start = ^uint32(0) - uint32(gap/2) // cross the uint32 boundary mid-gap
		} else {
			start = rng.Uint32() >> 1 // safely below the boundary
		}
		drops := make([]bool, gap+2)
		for i := 1; i <= gap; i++ {
			drops[i] = true
		}
		got := runReplay(t, replayCase{ringSize: ringSize, start: start, drops: drops})
		want := replayResult{lost: uint64(gap), found: uint64(ringSize - 1),
			clipped: uint64(gap - ringSize), misses: 1}
		if got != want {
			t.Fatalf("trial %d (straddle=%v, ring %d): got %+v, want %+v", trial, straddle, ringSize, got, want)
		}
	}
}
