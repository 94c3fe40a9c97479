package fifo

import (
	"math/rand"
	"testing"
)

// TestQueueMatchesSlice drives the ring and a plain slice with the same
// random pushes and pops, across several growths and wrap-arounds. Before
// each pop it updates the front element through Head.
func TestQueueMatchesSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var q Queue[int]
	var ref []int
	next := 0
	for step := 0; step < 20000; step++ {
		// Push-heavy first, pop-heavy later, so the ring both grows and drains.
		if push := rng.Intn(100) < 60-step/400; push || len(ref) == 0 {
			q.Push(next)
			ref = append(ref, next)
			next++
		} else {
			h := q.Head()
			if got, want := *h, ref[0]; got != want {
				t.Fatalf("step %d: Head = %d, want %d", step, got, want)
			}
			*h = -*h
			ref[0] = -ref[0]
			if got, want := q.Pop(), ref[0]; got != want {
				t.Fatalf("step %d: Pop = %d, want %d", step, got, want)
			}
			ref = ref[1:]
		}
		if q.Len() != len(ref) {
			t.Fatalf("step %d: Len = %d, want %d", step, q.Len(), len(ref))
		}
	}
}

// TestPopClearsSlot: a popped pointer is no longer referenced by the ring.
func TestPopClearsSlot(t *testing.T) {
	var q Queue[*int]
	for i := 0; i < 5; i++ {
		q.Push(new(int))
	}
	for q.Len() > 0 {
		q.Pop()
	}
	for i, p := range q.buf {
		if p != nil {
			t.Fatalf("slot %d still references a popped element", i)
		}
	}
}

// TestDrainedQueueReleasesBurstBuffer: a buffer grown past keep slots is
// dropped when the queue empties; a small one is kept.
func TestDrainedQueueReleasesBurstBuffer(t *testing.T) {
	var q Queue[int]
	for _, n := range []int{keep, 4 * keep} {
		for i := 0; i < n; i++ {
			q.Push(i)
		}
		for i := 0; i < n; i++ {
			if got := q.Pop(); got != i {
				t.Fatalf("burst of %d: Pop = %d, want %d", n, got, i)
			}
		}
		if kept := len(q.buf) > 0; kept != (n <= keep) {
			t.Fatalf("burst of %d: drained queue keeps %d slots", n, len(q.buf))
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pop on an empty queue did not panic")
		}
	}()
	var q Queue[int]
	q.Pop()
}

func TestSteadyStateDoesNotAllocate(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 8; i++ {
		q.Push(i)
	}
	if n := testing.AllocsPerRun(1000, func() { q.Push(q.Pop()) }); n != 0 {
		t.Fatalf("steady-state Push+Pop allocates %v times per run", n)
	}
}
