package oracle

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"netseer/internal/core"
	"netseer/internal/fevent"
)

// TestScenarioMatrix is the seeded differential-testing suite: every
// scenario runs the full pipeline and must satisfy all five invariant
// checkers, including the TCP delivery replay.
func TestScenarioMatrix(t *testing.T) {
	m := Matrix(0x5eed)
	if len(m) < 20 {
		t.Fatalf("matrix has %d scenarios, want >= 20", len(m))
	}
	for i, sc := range m {
		sc := sc
		t.Run(fmt.Sprintf("%02d_%s", i, name(sc)), func(t *testing.T) {
			t.Parallel()
			res := Run(sc)
			rep := CheckAll(res)
			for _, v := range rep.Violations() {
				t.Error(v)
			}
			var sum core.Stats
			for _, st := range res.BySwitch {
				sum.Add(st)
			}
			if sum != res.Stats {
				t.Errorf("Stats %+v, want the sum over switches %+v", res.Stats, sum)
			}
			if t.Failed() {
				t.Logf("scenario: %s", sc)
				t.Logf("repro bytes: %x", sc.Encode())
			}
		})
	}
}

// name renders a compact subtest name.
func name(sc Scenario) string {
	s := sc.String()
	s = strings.NewReplacer(" ", ",", "=", "_").Replace(s)
	if len(s) > 60 {
		s = s[:60]
	}
	return s
}

func TestScenarioEncodeDecodeRoundTrip(t *testing.T) {
	for _, sc := range Matrix(42) {
		got := DecodeScenario(sc.Encode())
		if got != sc {
			t.Errorf("round trip changed scenario:\n in: %+v\nout: %+v", sc, got)
		}
	}
}

func TestDecodeScenarioToleratesArbitraryInput(t *testing.T) {
	cases := [][]byte{nil, {}, {0xff}, make([]byte, 5), make([]byte, 100)}
	for _, in := range cases {
		sc := DecodeScenario(in)
		if sc != sc.Normalize() {
			t.Errorf("decode of %d bytes not normalized: %+v", len(in), sc)
		}
	}
}

func TestNormalizeBounds(t *testing.T) {
	sc := Scenario{
		Topo: 200, Flows: 255, Pkts: 255,
		LossBurst: 255, LossPct: 255, CorruptPct: 255,
		PathFlip: true, Incast: true, Pause: true,
	}.Normalize()
	if sc.Topo >= topoCount {
		t.Errorf("Topo not clamped: %d", sc.Topo)
	}
	if sc.Flows > 40 || sc.Pkts > 50 || sc.LossBurst > 60 || sc.LossPct > 20 || sc.CorruptPct > 20 {
		t.Errorf("numeric fields not clamped: %+v", sc)
	}
	if sc.GroupSlots < 8 || sc.GroupC < 1 || sc.RingSlots < 16 {
		t.Errorf("zero sizes not raised to minima: %+v", sc)
	}
	if sc.Topo == TopoLine2 && (sc.PathFlip || sc.Incast || sc.Pause) {
		t.Errorf("line topology kept multi-host faults: %+v", sc)
	}
}

func TestScenarioStringMentionsFaults(t *testing.T) {
	sc := Scenario{Seed: 1, Topo: TopoTestbed, LossBurst: 5, LossPct: 3, CorruptPct: 2,
		Blackhole: true, Parity: true, ACLDeny: true, PathFlip: true, Incast: true, Pause: true}.Normalize()
	s := sc.String()
	for _, want := range []string{"burst=5", "loss=3%", "corrupt=2%", "+blackhole", "+parity", "+acl", "+pathflip", "+incast", "+pause"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}

// TestReproSeeds replays every committed minimized regression seed; these
// are scenarios that once exposed an invariant violation and must stay
// green forever.
func TestReproSeeds(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "repros", "*.bin"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Skip("no repro seeds committed")
	}
	for _, f := range files {
		f := f
		t.Run(filepath.Base(f), func(t *testing.T) {
			t.Parallel()
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			sc := DecodeScenario(data)
			res := Run(sc)
			rep := CheckAll(res)
			for _, v := range rep.Violations() {
				t.Error(v)
			}
			var sum core.Stats
			for _, st := range res.BySwitch {
				sum.Add(st)
			}
			if sum != res.Stats {
				t.Errorf("Stats %+v, want the sum over switches %+v", res.Stats, sum)
			}
			if t.Failed() {
				t.Logf("scenario: %s", sc)
			}
		})
	}
}

// TestMinimizeShrinksFailingScenario exercises the fuzz minimizer against
// a synthetic failure predicate: the minimizer must keep the predicate
// true while stripping everything irrelevant to it.
func TestMinimizeShrinksFailingScenario(t *testing.T) {
	big := Scenario{
		Seed: 9, Topo: TopoTestbed, GroupSlots: 16, GroupC: 2, RingSlots: 32,
		Flows: 40, Pkts: 50, LossBurst: 60, LossPct: 20, CorruptPct: 20,
		Blackhole: true, Parity: true, ACLDeny: true, PathFlip: true, Incast: true, Pause: true,
	}.Normalize()
	calls := 0
	failing := func(sc Scenario) bool {
		calls++
		return sc.LossBurst > 0 // only the burst matters
	}
	min := Minimize(big, failing)
	if min.LossBurst == 0 {
		t.Fatal("minimizer lost the failure-relevant field")
	}
	if !failing(min) {
		t.Fatal("minimized scenario no longer fails")
	}
	if min.Blackhole || min.Parity || min.ACLDeny || min.PathFlip || min.Incast || min.Pause {
		t.Errorf("irrelevant fault flags survived minimization: %+v", min)
	}
	if min.Flows != 1 || min.Pkts != 1 {
		t.Errorf("workload not minimized: flows=%d pkts=%d", min.Flows, min.Pkts)
	}
	if min.Topo != TopoLine2 {
		t.Errorf("topology not minimized: %d", min.Topo)
	}
	if calls > 400 {
		t.Errorf("minimizer used %d evaluations; want a bounded greedy pass", calls)
	}
}

func TestMinimizeReturnsPassingInputUnchanged(t *testing.T) {
	sc := Matrix(7)[0]
	got := Minimize(sc, func(Scenario) bool { return false })
	if got != sc {
		t.Errorf("minimizer mutated a non-failing scenario: %+v -> %+v", sc, got)
	}
}

// TestCheckersCatchTampering corrupts a healthy run's artifacts and
// verifies each checker actually fires — the oracle must not be
// vacuously green.
func TestCheckersCatchTampering(t *testing.T) {
	sc := Scenario{Seed: 3, Topo: TopoLine2, GroupSlots: 4096, GroupC: 128,
		RingSlots: 1024, Flows: 8, Pkts: 20, LossBurst: 10}.Normalize()

	t.Run("completeness_missed_event", func(t *testing.T) {
		res := Run(sc)
		res.Store.Reset() // collector "lost" everything
		rep := Check(res)
		if rep.Results[0].OK() {
			t.Error("completeness checker passed with an empty store")
		}
	})
	t.Run("soundness_phantom_event", func(t *testing.T) {
		res := Run(sc)
		if len(res.Batches) == 0 {
			t.Fatal("scenario produced no batches")
		}
		phantom := res.Batches[0]
		if len(phantom.Events) == 0 {
			t.Fatal("first batch is empty")
		}
		ev := phantom.Events[0]
		ev.Flow.SrcPort = 65432 // a flow that never existed
		ev.Hash = ev.Flow.Hash()
		res.Store.Deliver(&fevent.Batch{SwitchID: ev.SwitchID, Events: []fevent.Event{ev}})
		rep := Check(res)
		if rep.Results[1].OK() {
			t.Error("soundness checker passed with a phantom event in the store")
		}
	})
	t.Run("encoding_bad_hash", func(t *testing.T) {
		res := Run(sc)
		if len(res.Batches) == 0 || len(res.Batches[0].Events) == 0 {
			t.Fatal("no exported events to tamper with")
		}
		res.Batches[0].Events[0].Hash ^= 0xdeadbeef
		rep := Check(res)
		if rep.Results[2].OK() {
			t.Error("encoding checker passed with a corrupted pre-computed hash")
		}
	})
	t.Run("recovery_counts", func(t *testing.T) {
		res := Run(sc)
		res.Stats.InterSwitchFound += 5 // claim more recoveries than truth
		rep := Check(res)
		if rep.Results[0].OK() && rep.Results[3].OK() {
			t.Error("no checker noticed inflated recovery accounting")
		}
	})
}
