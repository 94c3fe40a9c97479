package obs

import (
	"sync"
	"testing"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Load() != 0 {
		t.Fatalf("zero value = %d, want 0", c.Load())
	}
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("Load = %d, want 42", c.Load())
	}
}

func TestMaxGauge(t *testing.T) {
	var m MaxGauge
	m.Observe(5)
	m.Observe(3) // lower: ignored
	if m.Load() != 5 {
		t.Fatalf("Load = %d, want 5", m.Load())
	}
	m.Observe(9)
	if m.Load() != 9 {
		t.Fatalf("Load = %d, want 9", m.Load())
	}
}

func TestInstrumentsConcurrent(t *testing.T) {
	var c Counter
	var m MaxGauge
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				m.Observe(int64(w*1000 + i))
			}
		}()
	}
	wg.Wait()
	if c.Load() != 8000 {
		t.Fatalf("counter = %d, want 8000", c.Load())
	}
	if m.Load() != 7999 {
		t.Fatalf("max = %d, want 7999", m.Load())
	}
}

// The instruments must be callable from paths pinned at 0 allocs/op.
func TestInstrumentsAllocFree(t *testing.T) {
	var c Counter
	var m MaxGauge
	h := NewHistogram(LatencyBuckets())
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(2)
		m.Observe(int64(c.Load()))
		h.Observe(float64(c.Load() % 512))
	})
	if n != 0 {
		t.Fatalf("instrument ops allocate %v allocs/op, want 0", n)
	}
}
