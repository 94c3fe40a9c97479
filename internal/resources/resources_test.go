package resources

import (
	"math"
	"testing"

	"netseer/internal/core"
)

func TestHeadlineFigures(t *testing.T) {
	u := Estimate(core.Config{})
	// §4: every class except stateful ALU below ~20% NetSeer-added usage;
	// stateful ALU ~40% total with batching+inter-switch ≈ 28 points.
	for _, cl := range Classes {
		if cl == StatefulALU {
			continue
		}
		if got := u.NetSeerOnly(cl); got > 0.20 {
			t.Errorf("%s NetSeer usage = %.0f%%, paper says <20%%", cl, got*100)
		}
	}
	alu := u.Total(StatefulALU)
	if alu < 0.35 || alu > 0.45 {
		t.Errorf("stateful ALU total = %.0f%%, paper says ~40%%", alu*100)
	}
	hot := u[StatefulALU][Batching] + u[StatefulALU][InterSwitch]
	if hot < 0.25 || hot > 0.31 {
		t.Errorf("batching+inter-switch ALU = %.0f%%, paper says 28%%", hot*100)
	}
}

func TestUsageScalesWithConfig(t *testing.T) {
	base := core.Config{}.WithDefaults()
	u := Estimate(base)
	groups, paths := base, base
	groups.GroupSlots *= 2
	paths.PathSlots *= 2
	ug, up := Estimate(groups), Estimate(paths)
	near := func(a, b float64) bool { return math.Abs(a-b) <= 1e-12 }
	if got, want := ug[SRAM][Dedup], 2*u[SRAM][Dedup]; !near(got, want) {
		t.Errorf("doubling GroupSlots: dedup SRAM %.4f, want %.4f", got, want)
	}
	if got, want := up[SRAM][Detection], 2*u[SRAM][Detection]; !near(got, want) {
		t.Errorf("doubling PathSlots: detection SRAM %.4f, want %.4f", got, want)
	}
	for _, v := range []Usage{ug, up} {
		// Float summation order over the map varies; compare with tolerance.
		if !near(v.NetSeerOnly(StatefulALU), u.NetSeerOnly(StatefulALU)) {
			t.Error("stateful ALU should be structural, not size-dependent")
		}
	}
}

func TestAllFractionsInRange(t *testing.T) {
	u := Estimate(core.Config{})
	for cl, comps := range u {
		for comp, f := range comps {
			if f < 0 || f > 1 {
				t.Errorf("%s/%s = %v out of [0,1]", cl, comp, f)
			}
		}
		if tot := u.Total(cl); tot > 1 {
			t.Errorf("%s total = %v exceeds the device", cl, tot)
		}
	}
}

func TestTablesRender(t *testing.T) {
	overall, detail := Estimate(core.Config{}).Tables()
	if overall.Rows() != len(Classes) {
		t.Errorf("overall rows = %d", overall.Rows())
	}
	if detail.Rows() != len(Components) {
		t.Errorf("detail rows = %d", detail.Rows())
	}
	if overall.String() == "" || detail.String() == "" {
		t.Error("empty render")
	}
}
