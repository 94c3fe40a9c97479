package collector

import (
	"sync"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

func TestStoreConcurrentIngestAndQuery(t *testing.T) {
	s := NewStore()
	var wg sync.WaitGroup
	// On every way out, a failed deadline included, the readers and the
	// poller stop and the writers finish before the next test starts.
	stop := make(chan struct{})
	var once sync.Once
	shutdown := func() {
		once.Do(func() { close(stop) })
		wg.Wait()
	}
	defer shutdown()
	const writers = 8
	const perWriter = 500
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				s.Deliver(batchOf(uint16(w), sim.Time(i),
					fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(uint32(w*perWriter + i)),
						SwitchID: uint16(w), Timestamp: sim.Time(i)}))
			}
		}()
	}
	// Concurrent readers. Each iteration holds the store's lock for a time
	// independent of its size: counts by switch and by type read the
	// block summaries, and a one-flow query walks that flow's chain. A
	// full-store query holds the lock for its whole scan, stalling every
	// writer for O(store), so only reader 0 runs one, at most every 50 ms.
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastFull time.Time
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				sw := uint16(r)
				flow := flowN(uint32(r*perWriter + i%perWriter))
				_ = s.Count(Filter{SwitchID: &sw})
				_ = s.CountByType()
				_ = s.Query(Filter{Flow: &flow})
				_ = s.Len()
				if r == 0 && time.Since(lastFull) >= 50*time.Millisecond {
					_ = s.Query(Filter{Type: fevent.TypeCongestion})
					lastFull = time.Now()
				}
				// Yield so writers progress on single-CPU machines.
				time.Sleep(time.Millisecond)
			}
		}()
	}
	done := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for s.Len() < writers*perWriter {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("ingest did not complete")
	}
	shutdown()
	if s.Len() != writers*perWriter {
		t.Fatalf("stored %d, want %d", s.Len(), writers*perWriter)
	}
}

func TestServerMultipleClients(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var wg sync.WaitGroup
	const clients = 5
	const batches = 20
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := NewClientConfig(srv.Addr(), ClientConfig{})
			defer cl.Close()
			for i := 0; i < batches; i++ {
				cl.Deliver(batchOf(uint16(c), sim.Time(i),
					fevent.Event{Type: fevent.TypeDrop, Flow: flowN(uint32(c*100 + i)),
						DropCode: fevent.DropNoRoute, SwitchID: uint16(c), Timestamp: sim.Time(i)}))
			}
			if err := cl.Flush(); err != nil {
				t.Errorf("client %d flush: %v", c, err)
			}
		}()
	}
	wg.Wait()
	deadline := time.Now().Add(3 * time.Second)
	for store.Len() < clients*batches && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != clients*batches {
		t.Fatalf("stored %d, want %d", store.Len(), clients*batches)
	}
}

func TestServerSurvivesGarbageClient(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	// A garbage connection must not break subsequent valid ones.
	garbage := NewClientConfig(srv.Addr(), ClientConfig{})
	garbage.Deliver(batchOf(1, 1, fevent.Event{Type: fevent.TypePause, Flow: flowN(1), SwitchID: 1, Timestamp: 1}))
	garbage.Flush()
	// Raw garbage bytes on a fresh socket.
	rawConn, err := newRawConn(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	rawConn.Write([]byte{0xff, 0x00, 0x00, 0x08, 1, 2, 3, 4, 5, 6, 7, 8})
	rawConn.Close()
	// Another valid client still works.
	cl := NewClientConfig(srv.Addr(), ClientConfig{})
	cl.Deliver(batchOf(2, 2, fevent.Event{Type: fevent.TypePause, Flow: flowN(2), SwitchID: 2, Timestamp: 2}))
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	garbage.Close()
	deadline := time.Now().Add(2 * time.Second)
	for store.Len() < 2 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != 2 {
		t.Fatalf("stored %d valid events, want 2", store.Len())
	}
}
