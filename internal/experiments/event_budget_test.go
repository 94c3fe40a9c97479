package experiments

import (
	"testing"

	"netseer/internal/sim"
	traffic "netseer/internal/workload"
)

// TestTestbedEventBudget pins what the simulator spends on a packet of the
// benchmark's testbed configuration (WEB at load 0.70, every fault
// injected), so that events which cannot change state do not creep back.
// A CEBP that re-schedules itself over an empty stack shows in the first
// number, a device that schedules its whole backlog ahead of time in the
// second: with spinning CEBPs and every NIC departure scheduled at send
// time this run took 8.96 events a packet and held 9 502 pending. Both are
// exact counts of a deterministic run; the bounds are the measured values
// plus 5 % and 10 %.
func TestTestbedEventBudget(t *testing.T) {
	const (
		measuredPerPkt  = 3.5441 // 548 870 events, 154 867 packets
		measuredPending = 5991
	)
	tb := NewTestbed(RunConfig{
		Dist: traffic.WEB, Load: 0.70, Window: 2 * sim.Millisecond, NetSeer: true, Seed: 1,
		InjectLinkLoss: true, InjectPipelineBug: true, InjectPathChange: true, InjectIncast: true,
	})
	tb.GT.Enabled = false
	// One-shot samplers, not a Ticker: a live ticker would keep the drain
	// after the window from ever finishing.
	maxPending := 0
	for at := 100 * sim.Microsecond; at <= tb.Cfg.Window; at += 100 * sim.Microsecond {
		tb.Sim.At(at, func() { maxPending = max(maxPending, tb.Sim.Pending()) })
	}
	tb.Run()
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
}
