package sim

import "testing"

// TestCancelStress: pseudorandom schedule/cancel interleaving must keep
// the heap ordered (executed instants non-decreasing) and execute exactly
// the non-canceled events. The mid-heap removals exercise both sift
// directions of the hand-rolled heap.
func TestCancelStress(t *testing.T) {
	s := New()
	rng := NewStream(5, "cancel-stress")
	var handles []Handle
	for i := 0; i < 300; i++ {
		h := s.At(Time(rng.Intn(50)), func() {})
		handles = append(handles, h)
	}
	canceled := 0
	for _, i := range rng.Perm(len(handles)) {
		if i%3 == 0 {
			if !s.Cancel(handles[i]) {
				t.Fatalf("cancel of pending event %d failed", i)
			}
			canceled++
		}
	}
	var prev Time
	executed := 0
	for s.Pending() > 0 {
		at := s.NextAt()
		if at < prev {
			t.Fatalf("heap disorder: next %v after %v", at, prev)
		}
		prev = at
		s.Step()
		executed++
	}
	if executed != len(handles)-canceled {
		t.Errorf("executed %d events, want %d", executed, len(handles)-canceled)
	}
}

// TestStreamEdges covers the small Stream helpers: Intn's guard, Uint32
// draws, and Exp staying non-negative.
func TestStreamEdges(t *testing.T) {
	r := NewStream(1, "edges")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Intn(0) did not panic")
			}
		}()
		r.Intn(0)
	}()
	if a, b := r.Uint32(), r.Uint32(); a == b {
		t.Errorf("consecutive Uint32 draws identical: %d", a)
	}
	for i := 0; i < 100; i++ {
		if v := r.Exp(3.0); v < 0 {
			t.Fatalf("Exp draw negative: %v", v)
		}
	}
	if r.Bool(0) || !r.Bool(1) {
		t.Error("Bool(0)/Bool(1) must be constant false/true")
	}
}
