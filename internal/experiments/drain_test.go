package experiments

import (
	"fmt"
	"testing"

	"netseer/internal/core"
	"netseer/internal/sim"
	"netseer/internal/sketch"
	"netseer/internal/workload"
)

// TestDrainLeavesNothingPending pins core.Drain's single round: after the
// last flush nothing is left scheduled, so no event is still on its way
// to the sink. A final flush that paced a batch into a future delivery
// would leave it pending and fail here. The configs are the benchmark
// testbed's (WEB at 0.70 over 10 ms with all four faults) and, for the
// largest export volume, the same run with the sketch stage on.
func TestDrainLeavesNothingPending(t *testing.T) {
	web := func(seed uint64) RunConfig {
		return RunConfig{
			Dist: workload.WEB, Load: 0.70, Window: 10 * sim.Millisecond, Seed: seed, NetSeer: true,
			InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
		}
	}
	sketched := web(1)
	sketched.NSCfg = core.Config{Sketch: true, SketchCfg: sketch.Config{HHThresholdPkts: 32, SpikeBytes: 32 << 10}}
	for _, cfg := range []RunConfig{web(1), web(2), sketched} {
		t.Run(fmt.Sprintf("seed%d-sketch=%v", cfg.Seed, cfg.NSCfg.Sketch), func(t *testing.T) {
			tb := NewTestbed(cfg)
			tb.Run()
			if n := tb.Sim.Pending(); n != 0 {
				t.Errorf("%d events pending after Drain", n)
			}
			if st := tb.NetSeerStats(); st.ExportedEvents == 0 {
				t.Error("no events exported: the check is vacuous")
			}
		})
	}
}
