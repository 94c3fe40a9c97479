package sketch

import (
	"bytes"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// FuzzSketch drives the whole stage from arbitrary bytes — each byte pair
// is one packet (flow index, egress port, size nibble) — and checks every
// emitted event against an exact map-based oracle maintained alongside:
//
//   - CMS estimates never fall below exact counts (overestimate-only).
//   - Heavy-hitter events only fire at/above the configured threshold and
//     never exceed the exact count plus the stream's worst-case collision
//     mass (bounded deterministically by the stream length).
//   - Top-K churn satisfies count − err ≤ true ≤ count for residents.
//   - Aggregate spikes match the exact per-(port, window) byte bins.
//
// The seeds steer the regimes directly: one flow hammered past the
// heavy-hitter threshold, more flows than top-K counters (eviction churn),
// bursts dense enough to cross the spike threshold, and time jumps that
// roll the aggregate window.
func FuzzSketch(f *testing.F) {
	// op encodes one packet the way the target decodes it: byte 0 packs
	// the flow index (low nibble) and egress port (top two bits), byte 1
	// the size nibble and a time-advance flag.
	op := func(flow, port, size byte, advance bool) []byte {
		b1 := size << 4
		if advance {
			b1 |= 1
		}
		return []byte{flow&0x0f | port<<6, b1}
	}

	var hammer, churn, spike, windows [][]byte
	for i := 0; i < 40; i++ { // one flow past the heavy-hitter threshold
		hammer = append(hammer, op(3, 2, 1, false))
	}
	for i := 0; i < 64; i++ { // 16 flows round-robin over a 4-counter table
		churn = append(churn, op(byte(i), byte(i)&3, 2, false))
	}
	for i := 0; i < 24; i++ { // max-size packets on one port, no time advance
		spike = append(spike, op(1, 3, 0x0f, false))
	}
	for i := 0; i < 32; i++ { // every packet jumps time: repeated window rolls
		windows = append(windows, op(byte(i), 1, 0x0f, true))
	}
	f.Add(op(0, 0, 1, false))
	f.Add(bytes.Join(hammer, nil))
	f.Add(bytes.Join(churn, nil))
	f.Add(bytes.Join(spike, nil))
	f.Add(bytes.Join(windows, nil))
	f.Add(bytes.Join(append(append(churn, spike...), op(9, 0, 7, true), op(9, 0, 7, false)), nil))
	f.Add(bytes.Repeat([]byte{0}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		const ports = 4
		cfg := Config{
			CMSWidth: 64, CMSDepth: 3, TopK: 4,
			HHThresholdPkts: 8, ChurnMin: 1,
			Window: 1000, SpikeBytes: 4 << 10,
		}
		truth := make(map[pkt.FlowKey]uint32)
		binBytes := make(map[[2]uint16]uint64) // (port, window) → bytes
		var now sim.Time

		var events []fevent.Event
		s := NewStage(cfg, ports, func(e *fevent.Event) { events = append(events, *e) })

		n := 0
		for i := 0; i+1 < len(data); i += 2 {
			flow := randFlow(int(data[i] & 0x0f))
			port := int32(data[i] >> 6)
			size := 64 + int(data[i+1]&0xf0)*8
			if data[i+1]&1 != 0 {
				now += sim.Time(data[i+1]) * 17
			}
			p := pkt.Packet{Flow: flow, WireLen: size}
			s.Offer(&p, 0, port, now)
			n++
			truth[flow]++
			win := uint16(uint64(now) / uint64(cfg.Window))
			binBytes[[2]uint16{uint16(port), win}] += uint64(size)

			if est := s.CMSEstimate(flow.Hash()); est < truth[flow] {
				t.Fatalf("CMS underestimate after %d pkts: est %d < true %d", n, est, truth[flow])
			}
		}
		s.Flush(now)

		if got := s.Stats().Pkts; got != uint64(n) {
			t.Fatalf("stage counted %d packets, offered %d", got, n)
		}
		for i := range events {
			e := &events[i]
			switch e.Type {
			case fevent.TypeHeavyHitter:
				tr := truth[e.Flow]
				if tr == 0 {
					t.Fatalf("heavy hitter for a flow never offered: %+v", e)
				}
				if uint32(e.Count) < cfg.HHThresholdPkts {
					t.Fatalf("heavy hitter below threshold: %+v", e)
				}
				// The estimate can only exceed truth by colliding streams,
				// which the stream length bounds.
				if uint64(e.Count) > uint64(tr)+uint64(n) {
					t.Fatalf("heavy-hitter count exceeds stream length bound: %+v (true %d, n %d)", e, tr, n)
				}
			case fevent.TypeTopKChurn:
				tr := uint64(truth[e.Flow])
				if tr == 0 {
					t.Fatalf("churn for a flow never offered: %+v", e)
				}
				if uint64(e.Count) > tr+uint64(e.SketchErr) {
					t.Fatalf("churn count %d − err %d exceeds true %d: %+v", e.Count, e.SketchErr, tr, e)
				}
			case fevent.TypeAggSpike:
				b := binBytes[[2]uint16{uint16(e.EgressPort), e.Window}]
				if b < cfg.SpikeBytes {
					t.Fatalf("spike for a bin below threshold (%d bytes): %+v", b, e)
				}
				if want := clamp16((b + 1023) >> 10); e.Count > want {
					t.Fatalf("spike count %d exceeds exact bin %d KiB: %+v", e.Count, want, e)
				}
				if e.Flow != (pkt.FlowKey{}) {
					t.Fatalf("spike with non-zero flow: %+v", e)
				}
			default:
				t.Fatalf("stage emitted a non-sketch event type: %+v", e)
			}
			// Every record must round-trip the 24-byte wire encoding.
			var back fevent.Event
			if err := back.DecodeRecord(e.AppendRecord(nil)); err != nil {
				t.Fatalf("record round trip failed: %v (%+v)", err, e)
			} else if back != *e {
				t.Fatalf("record round trip changed event:\n sent %+v\n got  %+v", *e, back)
			}
		}
		// Final sketch state agrees with the exact oracle.
		tk := s.TopKTable()
		for i := 0; i < tk.Len(); i++ {
			flow, count, err := tk.Entry(i)
			tr := uint64(truth[flow])
			if tr == 0 || count < tr || count-err > tr {
				t.Fatalf("top-K resident violates invariants: flow %v count %d err %d true %d", flow, count, err, tr)
			}
		}
	})
}
