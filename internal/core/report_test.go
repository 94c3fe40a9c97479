package core

import (
	"testing"
	"unsafe"

	"netseer/internal/dataplane"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Unit tests for the Step 2→4 plumbing beyond the end-to-end coverage in
// core_test.go.

func TestExportPacingDelaysDelivery(t *testing.T) {
	// A tiny export budget forces paced (scheduled) deliveries rather
	// than immediate ones.
	r := newRig(t, dataplane.Config{QueueLimitBytes: 2000}, Config{ExportBps: 1e3})
	for i := 0; i < 200; i++ {
		r.send(r.flow(uint16(i%5)), 1400)
	}
	r.sim.Run(5 * sim.Millisecond)
	// Flush pushes batches through the pacer; with a 1 kb/s budget the
	// deliveries land as future scheduled events.
	before := len(r.sink.events)
	r.ns0.Flush()
	r.ns1.Flush()
	pendingBefore := r.sim.Pending()
	if pendingBefore == 0 {
		t.Fatal("nothing pending after paced flush")
	}
	r.ns0.Stop()
	r.ns1.Stop()
	r.sim.RunAll()
	if len(r.sink.events) <= before {
		t.Error("paced deliveries never completed")
	}
}

func TestMarkInterCardChangesDropCode(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	r.ns0.MarkInterCard(0) // sw0's port toward sw1
	victim := r.flow(1000)
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.sim.Run(100 * sim.Microsecond)
	r.interLink.InjectLossBurst(true, 1)
	r.send(victim, 300)
	r.sim.Run(100 * sim.Microsecond)
	for i := 0; i < 3; i++ {
		r.send(r.flow(2000), 300)
	}
	r.finish(sim.Millisecond)
	var interCard, interSwitch int
	for _, e := range r.sink.byType(fevent.TypeDrop) {
		switch e.DropCode {
		case fevent.DropInterCard:
			interCard++
		case fevent.DropInterSwitch:
			interSwitch++
		}
	}
	if interCard == 0 {
		t.Error("no inter-card events from a marked port")
	}
	if interSwitch != 0 {
		t.Errorf("%d inter-switch events despite MarkInterCard", interSwitch)
	}
}

func TestPathTableCollisionReReports(t *testing.T) {
	// A 1-slot path table: two flows evict each other, each return
	// re-reports the (unchanged) path — the paper's "slightly more flows
	// reported as new ones" under limited resources.
	r := newRig(t, dataplane.Config{}, Config{PathSlots: 1})
	f1, f2 := r.flow(1), r.flow(2)
	for i := 0; i < 6; i++ {
		r.send(f1, 200)
		r.send(f2, 200)
	}
	r.finish(sim.Millisecond)
	// The 1-slot table churns: the data plane re-reports the same path on
	// every eviction return. Those duplicates are exactly what §3.6's CPU
	// stage exists to remove — so the churn shows up as SuppressedFPs,
	// while the sink still sees each (flow, path) once per switch.
	st := r.ns0.Stats()
	if st.SuppressedFPs == 0 {
		t.Error("no suppressed duplicates despite 1-slot path-table churn")
	}
	paths := r.sink.byType(fevent.TypePathChange)
	seen := make(map[fevent.Key]int)
	for _, e := range paths {
		if e.Flow != f1 && e.Flow != f2 {
			t.Errorf("path event for unknown flow %v", e.Flow)
		}
		k := e.Key()
		k.In, k.Out = e.IngressPort, e.EgressPort
		seen[k]++
	}
	if len(paths) != 4 {
		t.Errorf("sink path events = %d, want 4 post-dedup", len(paths))
	}
}

// TestPathEntryMatchesEveryFlowField offers the path table flows that
// differ from a base flow in one field each and share its slot: each must
// re-report, and the base flow after it must too. The 8-slot table
// indexes by mask, the 3-slot one by modulo.
func TestPathEntryMatchesEveryFlowField(t *testing.T) {
	base := pkt.FlowKey{SrcIP: 1, DstIP: 2, SrcPort: 3, DstPort: 4, Proto: pkt.ProtoTCP}
	variants := []func(f *pkt.FlowKey, k int){
		func(f *pkt.FlowKey, k int) { f.SrcIP += uint32(k) },
		func(f *pkt.FlowKey, k int) { f.DstIP += uint32(k) },
		func(f *pkt.FlowKey, k int) { f.SrcPort += uint16(k) },
		func(f *pkt.FlowKey, k int) { f.DstPort += uint16(k) },
		func(f *pkt.FlowKey, k int) { f.Proto += uint8(k) },
	}
	for _, slots := range []int{8, 3} {
		n := newRig(t, dataplane.Config{}, Config{PathSlots: slots}).ns0
		reports := func() uint64 { return n.stats.Detections[fevent.TypePathChange] }
		offer := func(f pkt.FlowKey, in, out int) {
			n.detectPathChange(&pkt.Packet{Kind: pkt.KindData, Flow: f}, in, out)
		}
		offer(base, 0, 1)
		offer(base, 0, 1)
		if got := reports(); got != 1 {
			t.Fatalf("%d slots: the same flow and ports reported %d times, want 1", slots, got)
		}
		slot := base.Hash() % uint32(slots)
		for i, change := range variants {
			f := base
			for k := 1; f == base || f.Hash()%uint32(slots) != slot; k++ {
				f = base
				change(&f, k)
			}
			before := reports()
			offer(f, 0, 1)
			offer(base, 0, 1)
			if got := reports() - before; got != 2 {
				t.Errorf("%d slots: variant %d (%v) and the base flow after it reported %d times, want 2", slots, i, f, got)
			}
		}
		before := reports()
		offer(base, 1, 1)
		offer(base, 1, 0)
		offer(base, 1, 0)
		if got := reports() - before; got != 2 {
			t.Errorf("%d slots: two port changes reported %d times, want 2", slots, got)
		}
	}
}

// TestPathEntryIs24B pins the path table's slot: the flow's fields, the
// port pair and the used flag in 16 B, and the time.
func TestPathEntryIs24B(t *testing.T) {
	if n := unsafe.Sizeof(pathEntry{}); n != 24 {
		t.Fatalf("a path-table slot is %d B, want 24", n)
	}
}

func TestStatsSnapshotIsolated(t *testing.T) {
	r := newRig(t, dataplane.Config{}, Config{})
	r.send(r.flow(1), 300)
	r.finish(sim.Millisecond)
	s1 := r.ns0.Stats()
	s2 := r.ns0.Stats()
	if s1.RawPackets != s2.RawPackets {
		t.Error("Stats not stable across calls")
	}
	// Mutating the returned copy must not affect the instance.
	s1.RawPackets = 999999
	if r.ns0.Stats().RawPackets == 999999 {
		t.Error("Stats returned a live reference")
	}
}

func TestSinkRequired(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("nil sink did not panic")
		}
	}()
	r := newRig(t, dataplane.Config{}, Config{})
	Attach(r.sw0, Config{}, nil)
}
