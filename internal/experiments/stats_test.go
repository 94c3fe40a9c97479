package experiments

import (
	"fmt"
	"testing"

	"netseer/internal/core"
	"netseer/internal/oracle"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// TestStatsConserveEvents holds each switch's core.Stats to the pipeline's
// conservation identities after core.Drain: every Step-2 report is pushed
// onto the CEBP stack or lost to its overflow, every pushed event reaches
// the switch CPU, and the CPU either suppresses it or exports it. The runs
// are the benchmark testbed (WEB at 0.70 with every fault) and an oracle
// scenario with the sketch stage feeding Step 3 and group-cache churn.
func TestStatsConserveEvents(t *testing.T) {
	tb := NewTestbed(RunConfig{
		Dist: workload.WEB, Load: 0.70, Window: 10 * sim.Millisecond, Seed: 1, NetSeer: true,
		InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
	})
	tb.Run()
	bySwitch := map[string]core.Stats{}
	for _, ns := range tb.NetSeers {
		bySwitch[fmt.Sprintf("testbed sw %d", ns.Switch().ID)] = ns.Stats()
	}
	res := oracle.Run(oracle.Scenario{
		Seed: 1, Topo: oracle.TopoTestbed, GroupSlots: 64, GroupC: 8, RingSlots: 1024,
		Flows: 32, Pkts: 30, LossPct: 8, Incast: true, ZipfSkew: 12, Elephants: 2, AggIncast: true,
	})
	if res.Stats.Sketch.HHEvents == 0 || res.Stats.GroupEvictions == 0 {
		t.Fatalf("oracle scenario has %d heavy-hitter events and %d evictions; want both non-zero",
			res.Stats.Sketch.HHEvents, res.Stats.GroupEvictions)
	}
	for id, st := range res.BySwitch {
		bySwitch[fmt.Sprintf("oracle sw %d", id)] = st
	}
	for name, s := range bySwitch {
		if s.ExportedEvents == 0 {
			t.Errorf("%s: nothing exported; the identities are vacuous", name)
		}
		if s.DedupReports != s.BatchPushed+s.LostStackOverflow {
			t.Errorf("%s: DedupReports %d != BatchPushed %d + LostStackOverflow %d",
				name, s.DedupReports, s.BatchPushed, s.LostStackOverflow)
		}
		if s.BatchPushed != s.BatchDelivered || s.BatchDelivered != s.ElimSeen {
			t.Errorf("%s: BatchPushed %d, BatchDelivered %d, ElimSeen %d differ",
				name, s.BatchPushed, s.BatchDelivered, s.ElimSeen)
		}
		if s.ElimSeen != s.SuppressedFPs+s.ElimForwarded {
			t.Errorf("%s: ElimSeen %d != SuppressedFPs %d + ElimForwarded %d",
				name, s.ElimSeen, s.SuppressedFPs, s.ElimForwarded)
		}
		if s.ElimForwarded != s.ExportedEvents {
			t.Errorf("%s: ElimForwarded %d != ExportedEvents %d", name, s.ElimForwarded, s.ExportedEvents)
		}
	}
}
