package experiments

import (
	"fmt"
	"strings"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// TestRegisterObsPublishesPipeline runs a NetSeer testbed with telemetry
// attached (the cmd/netsim wiring) and asserts the published sum and
// the live latency histogram land in a valid exposition with real values.
func TestRegisterObsPublishesPipeline(t *testing.T) {
	cfg := RunConfig{
		Dist: workload.WEB, Load: 0.6, Window: 2 * sim.Millisecond, Seed: 7,
		NetSeer: true, InjectPipelineBug: true, InjectIncast: true,
	}
	tb := NewTestbed(cfg)
	reg := obs.NewRegistry()
	publish := tb.RegisterObs(reg)
	const points = 8
	for i := 1; i <= points; i++ {
		tb.Sim.Schedule(cfg.Window*sim.Time(i)/points, publish)
	}
	tb.Run()
	publish()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	if err := obs.ValidateExposition([]byte(text)); err != nil {
		t.Fatalf("exposition invalid: %v", err)
	}

	st := tb.NetSeerStats()
	if st.EventPackets == 0 {
		t.Fatal("run produced no event packets; fixture too quiet")
	}
	if want := obs.MDetectEvents + fmt.Sprintf(`{type="drop"} %d`+"\n", st.Detections[fevent.TypeDrop]); !strings.Contains(text, want) {
		t.Errorf("exposition missing %q: the published sum disagrees with NetSeerStats", want)
	}
	for _, want := range []string{
		obs.MGroupIngested,
		obs.MBatchPushed,
		obs.MElimSeen,
		obs.MPacerSent,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if strings.Contains(text, obs.MGroupIngested+" 0\n") {
		t.Error("groupcache ingested still zero after publish")
	}
	if strings.Contains(text, obs.MDetectToCPU+"_count 0") {
		t.Error("detect-to-CPU latency histogram empty after a full run")
	}
	// The testbed store is fed in-process, so per-event detection stamps
	// survive and the detection→store histogram must show real, non-zero
	// staleness (over the TCP wire it legally reads 0 — the 24 B record
	// keeps only the batch stamp).
	if strings.Contains(text, obs.MDetectToStore+"_count 0") {
		t.Error("detect-to-store latency histogram empty after a full run")
	}
	if strings.Contains(text, obs.MDetectToStore+"_sum 0\n") {
		t.Error("detect-to-store staleness all zero on the in-process path")
	}
	// A declared family this process does not run renders a zero sample,
	// so the surface is uniform.
	if !strings.Contains(text, obs.MIngestFrames+" 0\n") {
		t.Error("zero sample for the ingest frames family missing")
	}
}
