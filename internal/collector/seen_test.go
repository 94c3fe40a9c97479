package collector

import (
	"fmt"
	"math/rand"
	"testing"

	"netseer/internal/collector/wal"
	"netseer/internal/faultconn"
)

// batchKey is a (switch, seq) dedup key: the key of the reference models
// the seen set is checked against.
type batchKey struct {
	sw  uint16
	seq uint64
}

// seenCharge recomputes, from the capacities of its slices, the bytes
// the set holds: what MemoryBytes must charge for it.
func seenCharge(s *seenSet) int64 {
	b := int64(cap(s.sws)) * seenSwitchCost
	for _, e := range s.sws {
		b += int64(cap(e.cs)) * seenContainerCost
		for _, c := range e.cs {
			b += int64(cap(c.lo)) * seenLowCost
		}
	}
	return b
}

// checkSeen requires s to hold exactly the keys of m, to list them in
// strict (switch, seq) order with no empty switch or container, and to
// charge what its slices hold.
func checkSeen(s *seenSet, m map[batchKey]struct{}) error {
	for _, e := range s.sws {
		if len(e.cs) == 0 {
			return fmt.Errorf("switch %d holds no container", e.sw)
		}
		for _, c := range e.cs {
			if len(c.lo) == 0 {
				return fmt.Errorf("switch %d window %d is empty", e.sw, c.hi)
			}
		}
	}
	var keys []BatchID
	s.each(func(sw uint16, seq uint64) { keys = append(keys, BatchID{Switch: sw, Seq: seq}) })
	for i, k := range keys {
		if i > 0 && compareBatchIDs(keys[i-1], k) >= 0 {
			return fmt.Errorf("key %d %+v does not follow %+v", i, k, keys[i-1])
		}
		if _, ok := m[batchKey{k.Switch, k.Seq}]; !ok {
			return fmt.Errorf("key %+v is not in the model", k)
		}
	}
	if len(keys) != len(m) || s.n != len(m) {
		return fmt.Errorf("set lists %d keys and counts %d, the model holds %d", len(keys), s.n, len(m))
	}
	if got := seenCharge(s); s.mem != got {
		return fmt.Errorf("set charges %d B, its slices hold %d B", s.mem, got)
	}
	return nil
}

// FuzzSeenSet checks the seen set's add, has, merge and export against a
// map model. Each 4-byte op names a switch (of four), one of two client
// bases per switch that lie 2⁶¹ apart and 8 short of a window boundary,
// a window offset (0–7) and a signed step (±128) from it, so keys repeat,
// arrive out of order and fall on both sides of a seq>>16 boundary. An
// add-op with the top bit set is held back instead; a merge-op merges
// the held keys, unsorted and with repeats, in one call.
func FuzzSeenSet(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 9, 0, 2, 0, 9, 0})
	f.Add([]byte{0, 0, 7, 0, 0, 0, 8, 0, 0, 0, 6, 1, 2, 0, 7, 0, 2, 0, 8, 1})
	f.Add([]byte{0x80, 5, 0xf0, 0, 0x80, 5, 20, 0, 0x80, 5, 0xf0, 0, 3, 0, 0, 0, 0, 5, 21, 0, 7, 0, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 0, 0, 3, 0, 0x80, 0, 2, 0, 0x80, 0, 4, 0, 0x80, 0, 2, 0, 0x80, 0, 3, 0, 3, 0, 0, 0})
	f.Add([]byte{0x81, 1, 1, 1, 0x81, 6, 2, 2, 0x80, 3, 0x80, 7, 3, 0, 0, 0, 0x81, 1, 1, 1, 0x80, 2, 4, 4, 3, 0, 0, 0})
	// A merge past a window the switch already holds, which it keeps.
	f.Add([]byte{0, 0, 0, 0, 0x80, 0, 0, 2, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var s seenSet
		m := map[batchKey]struct{}{}
		var held []BatchID
		for ; len(data) >= 4; data = data[4:] {
			sw := uint16(data[1] & 3)
			base := uint64(1<<16 - 8)
			if data[1]&4 != 0 {
				base += 1 << 61
			}
			seq := base + uint64(data[3]&7)<<16 + uint64(int64(int8(data[2])))
			_, in := m[batchKey{sw, seq}]
			switch op := data[0]; {
			case op&3 == 2:
				if got := s.has(sw, seq); got != in {
					t.Fatalf("has(%d, %#x) = %v, model %v", sw, seq, got, in)
				}
			case op&3 == 3:
				s.merge(held)
				for _, id := range held {
					m[batchKey{id.Switch, id.Seq}] = struct{}{}
				}
				held = held[:0]
				if err := checkSeen(&s, m); err != nil {
					t.Fatalf("after a merge: %v", err)
				}
			case op&0x80 != 0:
				held = append(held, BatchID{Switch: sw, Seq: seq})
			default:
				if got := s.add(sw, seq); got == in {
					t.Fatalf("add(%d, %#x) = %v with the key in the model: %v", sw, seq, got, in)
				}
				m[batchKey{sw, seq}] = struct{}{}
			}
		}
		if err := checkSeen(&s, m); err != nil {
			t.Fatal(err)
		}
		var export []BatchID
		s.each(func(sw uint16, seq uint64) { export = append(export, BatchID{Switch: sw, Seq: seq}) })
		var copied seenSet
		copied.merge(export)
		if err := checkSeen(&copied, m); err != nil {
			t.Fatalf("an export merged into an empty set: %v", err)
		}
		mem := s.mem
		if s.merge(export); s.mem != mem {
			t.Fatalf("merging the set's own export moved its charge %d → %d B", mem, s.mem)
		}
		if err := checkSeen(&s, m); err != nil {
			t.Fatalf("after merging its own export: %v", err)
		}
	})
}

// TestSeenSetCost pins the set's cost on the benchmark's shape: one
// client, at a random 62-bit base, carrying 60 k batches of ten switches
// in random interleaving, then a second client of its own base, and a
// few hundred replays out of order. A key costs its 2 B low half, at the
// capacity append grows a slice to (at most 1.25× past a few KiB), plus a
// container per (switch, window): under 2.6 B a key all told, against
// the 56 B of the Go map this set replaced.
func TestSeenSetCost(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	var s seenSet
	for range 2 {
		base := r.Uint64() >> 2
		for i := range uint64(30_000) {
			s.add(uint16(1+r.Intn(10)), base+i)
		}
	}
	keys := []BatchID{}
	s.each(func(sw uint16, seq uint64) { keys = append(keys, BatchID{Switch: sw, Seq: seq}) })
	for range 300 {
		k := keys[r.Intn(len(keys))]
		if s.add(k.Switch, k.Seq) || !s.has(k.Switch, k.Seq) {
			t.Fatalf("replay of (%d, %d) is not a duplicate", k.Switch, k.Seq)
		}
	}
	if s.n != 60_000 || s.mem != seenCharge(&s) {
		t.Fatalf("%d keys charged %d B, their slices hold %d B", s.n, s.mem, seenCharge(&s))
	}
	perKey := float64(s.mem) / float64(s.n)
	t.Logf("%d keys in %d B, %.2f B a key", s.n, s.mem, perKey)
	if perKey > 2.6 {
		t.Errorf("%d keys cost %d B, %.2f B a key: want at most 2.6", s.n, s.mem, perKey)
	}
}

// TestIngestFramesConserve is the collector row of the accounting: every
// frame the server accepts for an ack is stored (a new key in the dedup
// set), deduplicated or shed to the log, exactly one of the three, over
// a wire that resets connections and under a budget the batches cross
// into shedding.
func TestIngestFramesConserve(t *testing.T) {
	w, err := wal.Open(t.TempDir(), wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	store := NewStore()
	ln, err := faultconn.Listen("127.0.0.1:0", faultconn.Config{Seed: 3, ResetAfter: 1500})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, store, ServerConfig{
		Listener:     ln,
		WAL:          w,
		MemoryBudget: memAfter(66) * 10 / 9,
	})
	cl := fastClient(srv.Addr())
	const n = 200
	deliverN(cl, 0, n)
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush: %v (client %+v, server %+v)", err, cl.Stats(), srv.Stats())
	}
	if err := cl.Close(); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	frames, stored, dups, shed := srv.Stats().Frames, uint64(store.seen.n), store.DupBatches(), srv.ShedBatches()
	if dups == 0 || shed == 0 {
		t.Fatalf("the resets or the budget did not bite: %d duplicates, %d shed", dups, shed)
	}
	if frames != stored+dups+shed {
		t.Fatalf("%d frames accepted, but %d stored + %d deduplicated + %d shed = %d", frames, stored, dups, shed, stored+dups+shed)
	}
}
