package collector

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// echoLines serves a connection by echoing each line back.
func echoLines(c net.Conn) {
	sc := bufio.NewScanner(c)
	for sc.Scan() {
		fmt.Fprintln(c, sc.Text())
	}
}

// TestServiceRetriesTransientAcceptErrors drives a Service over a
// listener whose first k Accepts fail: each failure is counted and
// retried, and the connection waiting behind them is still served.
func TestServiceRetriesTransientAcceptErrors(t *testing.T) {
	for _, k := range []int{0, 1, 3} {
		t.Run(fmt.Sprintf("fails=%d", k), func(t *testing.T) {
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			svc, err := Listen("", &flakyListener{Listener: ln, fails: k})
			if err != nil {
				t.Fatal(err)
			}
			svc.Start(nil, echoLines)
			defer svc.Close()

			c, err := net.Dial("tcp", svc.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			c.SetDeadline(time.Now().Add(5 * time.Second))
			fmt.Fprintln(c, "ping")
			if got, err := bufio.NewReader(c).ReadString('\n'); err != nil || got != "ping\n" {
				t.Fatalf("echo = %q, %v; want ping", got, err)
			}
			if got := svc.retries.Load(); got != uint64(k) {
				t.Errorf("Retries = %d, want %d", got, k)
			}
		})
	}
}

// TestServiceAdmitSeesLiveConns checks the admission hook: it is offered
// the live connection count, and a refused connection is closed unserved.
func TestServiceAdmitSeesLiveConns(t *testing.T) {
	svc, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	svc.Start(func(live int) bool { return live < 1 }, echoLines)
	defer svc.Close()

	c1, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	c1.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintln(c1, "one")
	if got, err := bufio.NewReader(c1).ReadString('\n'); err != nil || got != "one\n" {
		t.Fatalf("first connection echo = %q, %v", got, err)
	}
	c2, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	c2.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintln(c2, "two")
	if got, err := bufio.NewReader(c2).ReadString('\n'); err == nil {
		t.Fatalf("second connection was served (%q) past the admission cap", got)
	}
}

// closesWithin fails the test unless close returns within d. A close
// that blocks is left to finish when the test's deferred cleanups
// release what holds it.
func closesWithin(t *testing.T, d time.Duration, close func() error) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer func() { done <- struct{}{} }()
		close()
	}()
	select {
	case <-done:
	case <-time.After(d):
		t.Fatalf("Close still blocked after %v with an idle client attached", d)
	}
}

// TestQueryServerCloseReleasesIdleClients is the regression test for a
// Close that waited on clients blocked reading their next request: an
// attached watcher held a netseerd's shutdown open.
func TestQueryServerCloseReleasesIdleClients(t *testing.T) {
	qs, err := NewQueryServer(seedStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.Dial("tcp", qs.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintln(c, "count")
	sc := bufio.NewScanner(c)
	for sc.Scan() && sc.Text() != "." {
	}
	closesWithin(t, time.Second, qs.Close)
	if sc.Scan() {
		t.Fatalf("idle client read %q after Close", sc.Text())
	}
}

// TestQueryLines pins the line protocol's client: rows up to the
// terminator, a "!" answer and a callback error as errors, and a server
// that closes mid-answer as an error, not a short answer.
func TestQueryLines(t *testing.T) {
	qs, err := NewQueryServer(seedStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	var rows []string
	collect := func(line string) error { rows = append(rows, line); return nil }
	if err := QueryLines(qs.Addr(), "query switch=1", time.Second, collect); err != nil || len(rows) != 2 {
		t.Fatalf("query switch=1 = %v, %v; want 2 rows", rows, err)
	}
	if err := QueryLines(qs.Addr(), "bogus", 0, collect); err == nil || !strings.Contains(err.Error(), "unknown command") {
		t.Errorf("refused request: err = %v", err)
	}
	stop := errors.New("stop")
	if err := QueryLines(qs.Addr(), "query", 0, func(string) error { return stop }); !errors.Is(err, stop) {
		t.Errorf("callback error: err = %v, want it returned", err)
	}

	half, err := Listen("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	half.Start(nil, func(c net.Conn) {
		bufio.NewReader(c).ReadString('\n')
		fmt.Fprintln(c, "a row")
	})
	defer half.Close()
	if err := QueryLines(half.Addr(), "query", time.Second, func(string) error { return nil }); err == nil || !strings.Contains(err.Error(), "mid-response") {
		t.Errorf("truncated answer: err = %v", err)
	}
}

// TestDrainIsBoundedByGrace is the regression test for a Drain that
// waited out ReadTimeout: the read loop re-armed its deadline over the
// drain's. Drain must return about grace after it is called whether the
// client is idle or still sending, with every frame the server read
// acked and stored.
func TestDrainIsBoundedByGrace(t *testing.T) {
	for _, busy := range []bool{false, true} {
		t.Run(fmt.Sprintf("busy=%v", busy), func(t *testing.T) {
			store := NewStore()
			srv := startServer(t, store, ServerConfig{})
			defer srv.Close()
			c, err := net.Dial("tcp", srv.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			acked := make(chan uint64, 1)
			go func() {
				var last uint64
				for {
					seq, err := readAck(c)
					if err != nil {
						acked <- last
						return
					}
					last = seq
				}
			}()
			frames := 1
			if busy {
				frames = 1 << 20 // until the server stops reading
			}
			go func() {
				for seq := 1; seq <= frames; seq++ {
					b := batchOf(1, sim.Time(seq), fevent.Event{Type: fevent.TypePause, Flow: flowN(uint32(seq)), SwitchID: 1, Timestamp: sim.Time(seq)})
					b.Seq = uint64(seq)
					if WriteFrame(c, b) != nil {
						return
					}
					time.Sleep(2 * time.Millisecond)
				}
			}()
			time.Sleep(50 * time.Millisecond)
			drained := make(chan struct{})
			go func() {
				srv.Drain(100 * time.Millisecond)
				close(drained)
			}()
			select {
			case <-drained:
			case <-time.After(2 * time.Second):
				c.Close() // releases the Drain
				<-drained
				t.Fatal("Drain(100ms) still waiting after 2s")
			}
			c.SetReadDeadline(time.Now().Add(5 * time.Second))
			if last, n := <-acked, uint64(store.Len()); last == 0 || last > n {
				t.Errorf("acked through seq %d with %d events stored", last, n)
			}
		})
	}
}
