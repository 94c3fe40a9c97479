package experiments

import (
	"runtime"
	"testing"

	"netseer/internal/core"
	"netseer/internal/sim"
	traffic "netseer/internal/workload"
)

// TestTestbedEventBudget pins what the simulator spends on a packet of the
// benchmark's testbed_web run (WEB at load 0.70, 10 ms, seed 1, every
// fault injected), so that events and allocations which cannot change
// state do not creep back. A CEBP that re-schedules itself over an empty
// stack, or a switch hop that spends an event on a data frame's arrival,
// shows in the first number; a device or flow that schedules its whole
// backlog ahead of time in the second; a packet that is not recycled in
// the third. With spinning CEBPs and every NIC departure scheduled at send
// time this run took 6.03 events a packet and held 47 909 pending; with an
// arrival event per hop and every pacing chunk scheduled at flow start,
// 3.55 and 9 587, at 0.317 allocations a packet; with each host NIC
// holding its backlog as built packets, 0.0574. The event counts are exact
// counts of a deterministic run; the bounds are the measured values plus
// 5 % and 10 %, and the measured allocations plus 10 %.
//
// The same run pins the traffic fact the switch pipeline is built on: a
// front — the arrivals of one nanosecond at one switch — is one packet.
// The pipeline runs packet at a time because of it (DESIGN §12); a change
// that widens coalescing must change these bounds on purpose.
func TestTestbedEventBudget(t *testing.T) {
	const (
		measuredPerPkt    = 2.5459 // 2 561 121 events, 1 005 989 packets
		measuredPending   = 450
		measuredAllocsPkt = 0.0127 // 12 787 allocations
	)
	tb := NewTestbed(RunConfig{
		Dist: traffic.WEB, Load: 0.70, Window: 10 * sim.Millisecond, NetSeer: true, Seed: 1,
		InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
	})
	tb.GT.Enabled = false
	fronts := map[int]int{} // front size → count, over every switch
	for _, ns := range tb.NetSeers {
		ns.Switch().SetTelemetry(&frontSizes{NetSeerSwitch: ns, hist: fronts})
	}
	// One-shot samplers, not a Ticker: a live ticker would keep the drain
	// after the window from ever finishing.
	maxPending := 0
	for at := 100 * sim.Microsecond; at <= tb.Cfg.Window; at += 100 * sim.Microsecond {
		tb.Sim.At(at, func() { maxPending = max(maxPending, tb.Sim.Pending()) })
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tb.Run()
	runtime.ReadMemStats(&after)
	pkts := tb.NetSeerStats().RawPackets
	perPkt := float64(tb.Sim.Processed()) / float64(pkts)
	t.Logf("%d events for %d packets: %.4f events per packet; at most %d pending", tb.Sim.Processed(), pkts, perPkt, maxPending)
	if perPkt > measuredPerPkt*1.05 {
		t.Errorf("%.4f events per packet (%d events, %d packets); budget is %.4f + 5 %%",
			perPkt, tb.Sim.Processed(), pkts, measuredPerPkt)
	}
	if float64(maxPending) > measuredPending*1.10 {
		t.Errorf("at most %d events pending; budget is %d + 10 %%", maxPending, int(measuredPending))
	}
	allocs := float64(after.Mallocs-before.Mallocs) / float64(pkts)
	t.Logf("%d allocations: %.4f per packet", after.Mallocs-before.Mallocs, allocs)
	if allocs > measuredAllocsPkt*1.10 {
		t.Errorf("%.4f allocations per packet; budget is %.4f + 10 %%", allocs, measuredAllocsPkt)
	}
	// Measured: 998 980 fronts, 996 244 (99.73 %) of one packet, mean 1.007.
	var total, single, inFronts int
	for n, c := range fronts {
		total += c
		inFronts += n * c
		if n == 1 {
			single = c
		}
	}
	share, mean := float64(single)/float64(total), float64(inFronts)/float64(total)
	t.Logf("%d fronts for %d packets: %.2f %% hold one packet, mean %.4f; by size %v", total, inFronts, 100*share, mean, fronts)
	if share < 0.99 || mean > 1.02 {
		t.Errorf("%.2f %% of fronts hold one packet, mean %.4f; the per-packet pipeline assumes >= 99 %% and <= 1.02; fronts by size: %v",
			100*share, mean, fronts)
	}
}

// frontSizes is a switch's NetSeer telemetry that also counts the sizes
// of the fronts the switch announces.
type frontSizes struct {
	*core.NetSeerSwitch
	hist map[int]int
}

func (f *frontSizes) BeginBurst(n int) {
	f.hist[n]++
	f.NetSeerSwitch.BeginBurst(n)
}
