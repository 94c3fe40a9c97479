package sketch

import (
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Zero-allocation pins: the sketch stage runs inside the per-packet
// pipeline, so every steady-state entry point must allocate nothing —
// events are emitted through the reused scratch record, tables are
// fixed-size arrays.

func TestOfferAllocFree(t *testing.T) {
	s := NewStage(Config{TopK: 8, HHThresholdPkts: 4, ChurnMin: 1, SpikeBytes: 1 << 10},
		4, func(*fevent.Event) {})
	pkts := make([]pkt.Packet, 32)
	for i := range pkts {
		pkts[i] = pkt.Packet{Flow: randFlow(i), WireLen: 724}
	}
	now := sim.Time(0)
	if avg := testing.AllocsPerRun(200, func() {
		now += 100
		for i := range pkts {
			s.Offer(&pkts[i], 0, int32(i&3), now)
		}
	}); avg != 0 {
		t.Fatalf("Offer allocates %.1f times per run, want 0", avg)
	}
}

func TestFlushAllocFree(t *testing.T) {
	s := NewStage(Config{TopK: 8, HHThresholdPkts: 4, ChurnMin: 1, SpikeBytes: 1 << 10},
		4, func(*fevent.Event) {})
	pkts := make([]pkt.Packet, 16)
	for i := range pkts {
		pkts[i] = pkt.Packet{Flow: randFlow(i), WireLen: 1400}
		s.Offer(&pkts[i], 0, int32(i&3), sim.Time(i))
	}
	now := sim.Time(1000)
	if avg := testing.AllocsPerRun(200, func() {
		now += 100
		s.Flush(now)
	}); avg != 0 {
		t.Fatalf("Flush allocates %.1f times per run, want 0", avg)
	}
}
