package oracle

import (
	"os"
	"path/filepath"
	"testing"
)

// FuzzPipeline is the whole-system fuzzer: arbitrary bytes decode into a
// (topology, workload, fault-schedule) scenario, the full pipeline runs,
// and the four in-process invariant checkers must hold. (The delivery
// checker needs real sockets and wall-clock backoff, so the seeded matrix
// covers it instead.) On failure the scenario is greedily minimized and
// written under testdata/repros/ for TestReproSeeds to replay forever.
func FuzzPipeline(f *testing.F) {
	for _, sc := range Matrix(1) {
		f.Add(sc.Encode())
	}
	// The kitchen sink: small tables and ring, every link fault and every
	// control-plane fault at once on the testbed.
	f.Add(Scenario{Seed: 0x36fbefaa6fb125e4, Topo: TopoTestbed, GroupSlots: 32, GroupC: 4, RingSlots: 128,
		Flows: 40, Pkts: 40, LossBurst: 20, LossPct: 8, CorruptPct: 5,
		Blackhole: true, Parity: true, ACLDeny: true, PathFlip: true, Incast: true, Pause: true}.Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		sc := DecodeScenario(data)
		rep := Check(Run(sc))
		if rep.OK() {
			return
		}
		min := Minimize(sc, func(s Scenario) bool { return !Check(Run(s)).OK() })
		path, werr := writeRepro(min)
		minRep := Check(Run(min))
		t.Errorf("invariant violations in %s:", sc)
		for _, v := range minRep.Violations() {
			t.Errorf("  %s", v)
		}
		if werr != nil {
			t.Errorf("could not write repro file: %v (minimized bytes: %x)", werr, min.Encode())
		} else {
			t.Errorf("minimized repro written to %s (scenario: %s)", path, min)
		}
	})
}

// writeRepro persists a minimized failing scenario as a replayable
// regression seed. Best-effort: fuzz workers may run in sandboxed
// directories where testdata/ is absent.
func writeRepro(sc Scenario) (string, error) {
	dir := filepath.Join("testdata", "repros")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "repro-"+hexName(sc)+".bin")
	return path, os.WriteFile(path, sc.Encode(), 0o644)
}

func hexName(sc Scenario) string {
	const digits = "0123456789abcdef"
	enc := sc.Encode()
	out := make([]byte, 0, 2*len(enc))
	for _, b := range enc {
		out = append(out, digits[b>>4], digits[b&0x0f])
	}
	return string(out)
}
