package experiments

import (
	"fmt"

	"netseer/internal/baselines"
	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/metrics"
	"netseer/internal/sim"
	"netseer/internal/workload"
)

// This file regenerates the coverage and overhead figures: Fig. 9 (event
// coverage by type), Fig. 10 (congestion coverage per workload) and
// Fig. 11 (overall bandwidth overhead per workload).

// EventClass names a Fig. 9 row.
type EventClass string

// Fig. 9 event classes.
const (
	ClassPathChange  EventClass = "path change"
	ClassMMUDrop     EventClass = "MMU drop"
	ClassInterSwitch EventClass = "inter-switch drop"
	ClassPipeline    EventClass = "pipeline drop"
	ClassCongestion  EventClass = "congestion"
)

// Fig9Classes lists the classes in the paper's presentation order.
var Fig9Classes = []EventClass{ClassPathChange, ClassMMUDrop, ClassInterSwitch, ClassPipeline}

// CoverageResult holds coverage ratios per (class, system).
type CoverageResult struct {
	Workload string
	Systems  []string
	// Ratio[class][system] in [0,1].
	Ratio map[EventClass]map[string]float64
	// TruthCount is the size of the ground-truth set per class.
	TruthCount map[EventClass]int
}

// classTruth extracts the ground-truth flow-event set for a class.
func classTruth(g *dataplane.GroundTruth, class EventClass) map[dataplane.FlowEventKey]int {
	switch class {
	case ClassPathChange:
		// Fig. 9 injects mid-flow re-paths; first appearances are not the
		// measured events.
		return g.PathChangeFlowEvents(true)
	case ClassMMUDrop:
		return g.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropMMUCongestion })
	case ClassInterSwitch:
		return g.DropFlowEvents(func(c fevent.DropCode) bool { return c == fevent.DropInterSwitch })
	case ClassPipeline:
		return g.DropFlowEvents(fevent.DropCode.IsPipeline)
	case ClassCongestion:
		return g.CongestionFlowEvents()
	default:
		panic("experiments: unknown class " + string(class))
	}
}

// Fig9EventCoverage runs the injected-event workload and scores every
// monitoring system's coverage per event class (Fig. 9).
func Fig9EventCoverage(cfg RunConfig) *CoverageResult {
	cfg.NetSeer = true
	cfg.NetSight = true
	cfg.EverFlow = true
	if cfg.SamplerRates == nil {
		cfg.SamplerRates = []int{10, 100, 1000}
	}
	cfg.InjectLinkLoss = true
	cfg.InjectPipelineBug = true
	cfg.InjectPathChange = true
	cfg.InjectIncast = true
	tb := NewTestbed(cfg)
	tb.Run()

	systems := map[string]baselines.Detections{
		"netseer":  tb.NetSeerDetections(),
		"netsight": tb.NetSight.Detected(),
		"everflow": tb.EverFlow.Detected(),
	}
	order := []string{"netseer", "netsight", "everflow"}
	for _, sp := range tb.Samplers {
		systems[sp.Name()] = sp.Detected()
		order = append(order, sp.Name())
	}

	res := &CoverageResult{
		Workload:   cfg.Dist.Name,
		Systems:    order,
		Ratio:      make(map[EventClass]map[string]float64),
		TruthCount: make(map[EventClass]int),
	}
	for _, class := range Fig9Classes {
		truth := classTruth(tb.GT, class)
		res.TruthCount[class] = len(truth)
		res.Ratio[class] = make(map[string]float64)
		for name, det := range systems {
			res.Ratio[class][name] = Coverage(truth, det)
		}
	}
	return res
}

// Fig10CongestionCoverage measures congestion-event coverage per traffic
// distribution (Fig. 10), including Pingmesh's existence-only credit.
func Fig10CongestionCoverage(base RunConfig, dists []*workload.Distribution) []*CoverageResult {
	return parallelMap(len(dists), func(i int) *CoverageResult {
		d := dists[i]
		cfg := base
		cfg.Dist = d
		cfg.NetSeer = true
		cfg.NetSight = true
		cfg.EverFlow = true
		if cfg.SamplerRates == nil {
			cfg.SamplerRates = []int{10, 100, 1000}
		}
		cfg.Pingmesh = true
		tb := NewTestbed(cfg)
		tb.Run()

		truth := classTruth(tb.GT, ClassCongestion)
		res := &CoverageResult{
			Workload:   d.Name,
			Ratio:      map[EventClass]map[string]float64{ClassCongestion: {}},
			TruthCount: map[EventClass]int{ClassCongestion: len(truth)},
		}
		score := func(name string, det baselines.Detections) {
			res.Systems = append(res.Systems, name)
			res.Ratio[ClassCongestion][name] = Coverage(truth, det)
		}
		score("netseer", tb.NetSeerDetections())
		score("netsight", tb.NetSight.Detected())
		score("everflow", tb.EverFlow.Detected())
		for _, sp := range tb.Samplers {
			score(sp.Name(), sp.Detected())
		}
		// Pingmesh existence credit: a GT congestion episode counts if an
		// anomalous probe crossed the congested switch near its time.
		res.Systems = append(res.Systems, "pingmesh")
		res.Ratio[ClassCongestion]["pingmesh"] = pingmeshCongestionCredit(tb, truth)
		return res
	})
}

func pingmeshCongestionCredit(tb *Testbed, truth map[dataplane.FlowEventKey]int) float64 {
	if len(truth) == 0 {
		return 0
	}
	// Probe each congestion flow event at its first packet's time and
	// port, in first-seen order (capped for cost: sampling is fine for a
	// ratio).
	credited, checked := 0, 0
	for _, e := range tb.GT.Events {
		if e.Key.Type != fevent.TypeCongestion {
			continue
		}
		if checked++; checked > 500 {
			break
		}
		if tb.Pingmesh.CoversCongestion(tb.Fab, e.Key.SwitchID, e.Port, e.First, 50*sim.Microsecond) {
			credited++
		}
	}
	return float64(credited) / float64(len(truth))
}

// OverheadResult holds Fig. 11 rows: monitoring bytes as a fraction of
// raw traffic volume.
type OverheadResult struct {
	Workload string
	// RawBytes is the per-hop traffic volume the monitors watched.
	RawBytes uint64
	// Overhead[system] = monitoring bytes / RawBytes.
	Overhead map[string]float64
	Order    []string
	// NetSeerEps is the produced flow-event rate (events per second of
	// simulated time), for the §5.2 "~4 Meps for a 6.4 Tb/s switch"
	// discussion.
	NetSeerEps float64
}

// Fig11BandwidthOverhead measures monitoring-traffic overhead per
// workload (Fig. 11).
func Fig11BandwidthOverhead(base RunConfig, dists []*workload.Distribution) []*OverheadResult {
	return parallelMap(len(dists), func(i int) *OverheadResult {
		d := dists[i]
		cfg := base
		cfg.Dist = d
		cfg.NetSeer = true
		cfg.NetSight = true
		cfg.EverFlow = true
		if cfg.SamplerRates == nil {
			cfg.SamplerRates = []int{10, 100, 1000}
		}
		tb := NewTestbed(cfg)
		tb.Run()

		st := tb.NetSeerStats()
		raw := st.RawBytes
		res := &OverheadResult{
			Workload: d.Name, RawBytes: raw,
			Overhead:   make(map[string]float64),
			NetSeerEps: float64(st.ExportedEvents) / tb.Cfg.Window.Seconds(),
		}
		add := func(name string, bytes uint64) {
			res.Order = append(res.Order, name)
			res.Overhead[name] = metrics.Ratio(float64(bytes), float64(raw))
		}
		add("netseer", st.ExportedBytes)
		add("netsight", tb.NetSight.OverheadBytes())
		add("everflow", tb.EverFlow.OverheadBytes())
		for _, sp := range tb.Samplers {
			add(sp.Name(), sp.OverheadBytes())
		}
		return res
	})
}

// CoverageTable renders one or more coverage results as a paper-style
// table.
func CoverageTable(title string, class EventClass, results []*CoverageResult) *metrics.Table {
	if len(results) == 0 {
		return metrics.NewTable(title)
	}
	headers := append([]string{"workload", "truth"}, results[0].Systems...)
	t := metrics.NewTable(title, headers...)
	for _, r := range results {
		row := []string{r.Workload, fmt.Sprintf("%d", r.TruthCount[class])}
		for _, sys := range results[0].Systems {
			row = append(row, fmt.Sprintf("%.1f%%", r.Ratio[class][sys]*100))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig9Table renders a Fig. 9 result (classes as rows).
func Fig9Table(r *CoverageResult) *metrics.Table {
	headers := append([]string{"event class", "truth"}, r.Systems...)
	t := metrics.NewTable("Fig 9: event coverage ratios ("+r.Workload+")", headers...)
	for _, class := range Fig9Classes {
		row := []string{string(class), fmt.Sprintf("%d", r.TruthCount[class])}
		for _, sys := range r.Systems {
			row = append(row, fmt.Sprintf("%.1f%%", r.Ratio[class][sys]*100))
		}
		t.AddRow(row...)
	}
	return t
}

// Fig11Table renders overhead results.
func Fig11Table(results []*OverheadResult) *metrics.Table {
	if len(results) == 0 {
		return metrics.NewTable("Fig 11")
	}
	headers := append([]string{"workload"}, results[0].Order...)
	t := metrics.NewTable("Fig 11: overall bandwidth overhead", headers...)
	for _, r := range results {
		row := []string{r.Workload}
		for _, sys := range r.Order {
			row = append(row, fmt.Sprintf("%.4f%%", r.Overhead[sys]*100))
		}
		t.AddRow(row...)
	}
	return t
}
