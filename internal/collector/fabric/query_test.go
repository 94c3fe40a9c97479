package fabric

import (
	"bytes"
	"math"
	"math/rand"
	"net"
	"path/filepath"
	"slices"
	"sort"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// modelMerge is the fan-out merge as a map over decoded events: each
// identity's copies counted per shard, owner-wins applied to the counts,
// and the survivors sorted by (Timestamp, SwitchID, record). merge must
// give exactly its output.
func modelMerge(t testing.TB, cfg *Config, imgs [][]byte) []fevent.Event {
	merged := make(map[fevent.Event]map[uint32]int) // copies of an identity on each shard
	var b fevent.Batch
	for i, img := range imgs {
		for len(img) > 0 {
			var err error
			if img, err = fevent.DecodeBatch(img, &b); err != nil {
				t.Fatalf("model: %v", err)
			}
			for _, e := range b.Events {
				sc := merged[e]
				if sc == nil {
					sc = make(map[uint32]int)
					merged[e] = sc
				}
				sc[cfg.Shards[i].ID]++
			}
		}
	}
	var out []fevent.Event
	for e, per := range merged {
		owner := cfg.Slots[SlotOf(e.SwitchID, e.Flow)]
		m := per[owner]
		total := m
		for id, n := range per {
			if id != owner && n > m {
				total += n - m
			}
		}
		for i := 0; i < total; i++ {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.Timestamp != b.Timestamp {
			return a.Timestamp < b.Timestamp
		}
		if a.SwitchID != b.SwitchID {
			return a.SwitchID < b.SwitchID
		}
		var ra, rb [fevent.RecordLen]byte
		return bytes.Compare(a.AppendRecord(ra[:0]), b.AppendRecord(rb[:0])) < 0
	})
	return out
}

// mergeAnswers merges imgs, the record image each of cfg's shards answered
// with, as FanOutQuery does.
func mergeAnswers(t testing.TB, cfg *Config, imgs [][]byte) []fevent.Event {
	var copies []eventCopy
	for i, img := range imgs {
		var err error
		if copies, err = appendCopies(copies, cfg.Shards[i].ID, img); err != nil {
			t.Fatal(err)
		}
	}
	return merge(cfg, copies)
}

// encodeAnswer encodes evs, in order, as the record image a shard's
// export serves: batches of consecutive events that share a switch and a
// stamp, cut at random as well.
func encodeAnswer(t testing.TB, rng *rand.Rand, evs []fevent.Event) []byte {
	var img []byte
	for len(evs) > 0 {
		n := 1
		for n < len(evs) && evs[n].SwitchID == evs[0].SwitchID && evs[n].Timestamp == evs[0].Timestamp && rng.Intn(4) != 0 {
			n++
		}
		b := fevent.Batch{SwitchID: evs[0].SwitchID, Timestamp: evs[0].Timestamp, Events: evs[:n]}
		var err error
		if img, err = b.AppendTo(img); err != nil {
			t.Fatal(err)
		}
		evs = evs[n:]
	}
	return img
}

// mergeStamps mixes the stamps at the ends of int64 with a few small
// ones, so equal stamps recur across switches and the sign flip that
// orders identities is exercised.
var mergeStamps = []sim.Time{math.MinInt64, math.MinInt64 + 1, -7, -1, 0, 1, 2, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}

// TestMergeMatchesMapModel holds the fan-out merge to modelMerge over
// 1 500 random fabrics of 1–5 shards, on in-memory answers. Events are
// drawn from few flows, switches and stamps, and each lands on each shard
// 0–3 times, so the cases mix crash-window double copies on owner and
// non-owner, owners that lack an event, non-owner surpluses and equal
// stamps across switches; the test counts each so none is left out.
func TestMergeMatchesMapModel(t *testing.T) {
	var doubleOwner, doubleOther, ownerLacks, surplus, crossSwitch int
	for c := 0; c < 1500; c++ {
		rng := rand.New(rand.NewSource(int64(c)))
		cfg := Config{}
		for _, id := range rng.Perm(5)[:1+rng.Intn(5)] {
			cfg.Shards = append(cfg.Shards, ShardInfo{ID: uint32(id) + 1})
		}
		for s := range cfg.Slots {
			cfg.Slots[s] = cfg.Shards[rng.Intn(len(cfg.Shards))].ID
		}
		pool := make([]fevent.Event, 1+rng.Intn(30))
		for i := range pool {
			f := pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, byte(rng.Intn(4))), DstIP: pkt.IP(10, 0, 0, 99),
				SrcPort: uint16(rng.Intn(3)), DstPort: 80, Proto: pkt.ProtoTCP}
			e := fevent.Event{Type: fevent.Types[rng.Intn(len(fevent.Types))], Flow: f, Hash: f.Hash(),
				SwitchID: uint16(1 + rng.Intn(3)), Timestamp: mergeStamps[rng.Intn(len(mergeStamps))],
				Count: uint16(rng.Intn(3))}
			e.SetDetail(rng.Uint32() & 0x01010101)
			pool[i] = e
		}
		answers := make([][]fevent.Event, len(cfg.Shards))
		for _, e := range pool {
			owner := cfg.Slots[SlotOf(e.SwitchID, e.Flow)]
			copies := make(map[uint32]int)
			for i, s := range cfg.Shards {
				n := [...]int{0, 0, 1, 1, 1, 2, 3}[rng.Intn(7)]
				copies[s.ID] = n
				for k := 0; k < n; k++ {
					answers[i] = append(answers[i], e)
				}
			}
			for id, n := range copies {
				switch {
				case id == owner && n > 1:
					doubleOwner++
				case id != owner && n > 1:
					doubleOther++
				}
				if id != owner && n > copies[owner] {
					surplus++
					if copies[owner] == 0 {
						ownerLacks++
					}
				}
			}
		}
		imgs := make([][]byte, len(cfg.Shards))
		for i, evs := range answers {
			rng.Shuffle(len(evs), func(a, b int) { evs[a], evs[b] = evs[b], evs[a] })
			imgs[i] = encodeAnswer(t, rng, evs)
		}
		want := modelMerge(t, &cfg, imgs)
		for i := 1; i < len(want); i++ {
			if want[i].Timestamp == want[i-1].Timestamp && want[i].SwitchID != want[i-1].SwitchID {
				crossSwitch++
			}
		}
		if got := mergeAnswers(t, &cfg, imgs); !slices.Equal(got, want) {
			t.Fatalf("case %d (%d shards, %d events): merge gave %d events, the model %d:\n got %v\nwant %v",
				c, len(cfg.Shards), len(pool), len(got), len(want), got, want)
		}
	}
	// An answer that is not whole batches fails its shard.
	if _, err := appendCopies(nil, 1, make([]byte, fevent.BatchHeaderLen-1)); err == nil {
		t.Error("appendCopies took a truncated batch")
	}
	t.Logf("double copies on owner %d, on non-owner %d; owner lacks %d; surplus %d; equal stamps across switches %d",
		doubleOwner, doubleOther, ownerLacks, surplus, crossSwitch)
	for what, n := range map[string]int{"double copies on an owner": doubleOwner, "double copies on a non-owner": doubleOther,
		"an owner lacking an event": ownerLacks, "a non-owner surplus": surplus, "equal stamps across switches": crossSwitch} {
		if n < 100 {
			t.Errorf("only %d events with %s", n, what)
		}
	}
}

// TestFanOutWithSilentShardsTakesOneTimeout: four shards that accept a
// connection and never answer, beside one live shard. A read asks them
// all at once, so it comes back Partial after about one timeout, not
// one timeout a silent shard.
func TestFanOutWithSilentShardsTakesOneTimeout(t *testing.T) {
	live := startNode(t, 1, filepath.Join(t.TempDir(), "s1"))
	defer live.Close()
	ref := ingestTestLoad(t, live.Info().Ingest[0], 40, 8)

	cfg := Config{Epoch: 1, Shards: []ShardInfo{live.Info()}}
	for id := uint32(2); id <= 5; id++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer ln.Close()
		go func() {
			for {
				c, err := ln.Accept()
				if err != nil {
					return
				}
				defer c.Close() // held open, unanswered, until the listener closes
			}
		}()
		cfg.Shards = append(cfg.Shards, ShardInfo{ID: id, Query: ln.Addr().String()})
	}
	cfg.Slots = AssignSlots(cfg.Shards)

	const timeout = 250 * time.Millisecond
	start := time.Now()
	res := FanOutQuery(cfg, "", timeout)
	if took := time.Since(start); took >= 2*timeout {
		t.Errorf("FanOutQuery with 4 silent shards took %v, want about one %v timeout", took, timeout)
	}
	if !res.Partial || res.ShardsOK != 1 || res.ShardsTotal != 5 {
		t.Errorf("FanOutQuery coverage %+v, want partial 1/5", res.Coverage)
	}
	assertSameMultiset(t, "the live shard's events", ref, res.Events)

	start = time.Now()
	tr := FanOutTrace(cfg, 1, timeout)
	if took := time.Since(start); took >= 2*timeout {
		t.Errorf("FanOutTrace with 4 silent shards took %v, want about one %v timeout", took, timeout)
	}
	if !tr.Partial || tr.ShardsOK != 1 || tr.ShardsTotal != 5 {
		t.Errorf("FanOutTrace coverage %+v, want partial 1/5", tr.Coverage)
	}
}

// BenchmarkMerge merges 1 M events spread over 4 in-memory shard answers,
// one copy each, in batches of 50 that share a switch and a stamp: the
// sort merge, and modelMerge, which decodes and merges as the map merge
// did.
func BenchmarkMerge(b *testing.B) {
	const events, shards, per = 1 << 20, 4, 50
	rng := rand.New(rand.NewSource(1))
	cfg := Config{}
	for id := uint32(1); id <= shards; id++ {
		cfg.Shards = append(cfg.Shards, ShardInfo{ID: id})
	}
	cfg.Slots = AssignSlots(cfg.Shards)
	answers := make([][]fevent.Event, shards)
	for i := 0; i < events; i++ {
		f := pkt.FlowKey{SrcIP: rng.Uint32(), DstIP: rng.Uint32(), SrcPort: uint16(i), DstPort: 443, Proto: pkt.ProtoTCP}
		e := fevent.Event{Type: fevent.TypeCongestion, Flow: f, Hash: f.Hash(), Count: 1,
			SwitchID: uint16(i / per % 10), Timestamp: sim.Time(i / per * 1000), QueueLatencyUs: uint16(i)}
		s := int(cfg.Slots[SlotOf(e.SwitchID, f)]) - 1
		answers[s] = append(answers[s], e)
	}
	imgs := make([][]byte, shards)
	for i, evs := range answers {
		imgs[i] = encodeAnswer(b, rng, evs)
	}
	for _, bm := range []struct {
		name  string
		merge func(testing.TB, *Config, [][]byte) []fevent.Event
	}{{"sort", mergeAnswers}, {"model", modelMerge}} {
		b.Run(bm.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := bm.merge(b, &cfg, imgs); len(got) != events {
					b.Fatalf("merged %d events, want %d", len(got), events)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/events, "ns/event")
		})
	}
}
