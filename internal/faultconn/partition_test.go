package faultconn

import (
	"io"
	"net"
	"testing"
	"time"
)

// lnPair dials a fault-injecting listener and returns the wrapped
// server-side conn plus the raw client side.
func lnPair(t *testing.T, cfg Config) (*Listener, net.Conn, net.Conn) {
	t.Helper()
	ln, err := Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		accepted <- c
	}()
	raw, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	wrapped := <-accepted
	t.Cleanup(func() { raw.Close(); wrapped.Close() })
	return ln, wrapped, raw
}

func TestScheduledPartitionHealsOnItsOwn(t *testing.T) {
	const heal = 80 * time.Millisecond
	_, wrapped, raw := lnPair(t, Config{
		Seed: 7, PartitionDir: Outbound, PartitionFor: heal,
	})
	start := time.Now()
	msg := []byte("delayed by one-way partition")
	if _, err := wrapped.Write(msg); err != nil {
		t.Fatal(err)
	}
	if held := time.Since(start); held < heal {
		t.Errorf("write returned after %v, want >= %v (partition window)", held, heal)
	}
	got := make([]byte, len(msg))
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatal(err)
	}
	if string(got) != string(msg) {
		t.Errorf("payload corrupted across heal: %q", got)
	}
}

func TestManualPartitionIsAsymmetric(t *testing.T) {
	ln, wrapped, raw := lnPair(t, Config{Seed: 11})
	ln.Partition(Inbound)

	// Outbound (wrapped→raw) still flows while inbound is cut.
	if _, err := wrapped.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 3)
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(raw, got); err != nil {
		t.Fatalf("outbound direction blocked by inbound partition: %v", err)
	}

	// Inbound (raw→wrapped) stalls until Heal.
	if _, err := raw.Write([]byte("req")); err != nil {
		t.Fatal(err)
	}
	readDone := make(chan error, 1)
	go func() {
		buf := make([]byte, 3)
		_, err := io.ReadFull(wrapped, buf)
		readDone <- err
	}()
	select {
	case err := <-readDone:
		t.Fatalf("read completed through an inbound partition (err=%v)", err)
	case <-time.After(60 * time.Millisecond):
	}
	ln.Heal()
	select {
	case err := <-readDone:
		if err != nil {
			t.Fatalf("read after heal: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("read still blocked after Heal")
	}
}

// TestPartitionRespectsDeadline: a deadline that ends a partition wait
// surfaces as a timeout and nothing crosses the link in either direction
// — the wrapper answers itself, since the socket's own deadline timer may
// not have fired yet.
func TestPartitionRespectsDeadline(t *testing.T) {
	wantTimeout := func(op string, start time.Time, err error) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s through a partition with an expired deadline succeeded", op)
		}
		ne, ok := err.(net.Error)
		if !ok || !ne.Timeout() {
			t.Fatalf("%s: err = %v, want a timeout net.Error", op, err)
		}
		if time.Since(start) > 2*time.Second {
			t.Errorf("deadline-bounded partition wait of %s took too long", op)
		}
	}

	ln, wrapped, raw := lnPair(t, Config{Seed: 13})
	ln.Partition(Outbound)
	wrapped.SetWriteDeadline(time.Now().Add(50 * time.Millisecond))
	start := time.Now()
	_, err := wrapped.Write([]byte("never delivered"))
	wantTimeout("write", start, err)

	ln.Partition(Inbound)
	if _, err := raw.Write([]byte("req")); err != nil {
		t.Fatal(err)
	}
	wrapped.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	start = time.Now()
	n, err := wrapped.Read(make([]byte, 3))
	wantTimeout("read", start, err)
	if n != 0 {
		t.Fatalf("read %d bytes through an inbound partition", n)
	}

	// Healed: the request that waited out the partition arrives, and it is
	// the first thing the peer ever sees from the write side.
	ln.Heal()
	wrapped.SetDeadline(time.Now().Add(2 * time.Second))
	got := make([]byte, 3)
	if _, err := io.ReadFull(wrapped, got); err != nil || string(got) != "req" {
		t.Fatalf("read after heal = %q, %v", got, err)
	}
	if _, err := wrapped.Write([]byte("ack")); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := io.ReadFull(raw, got); err != nil || string(got) != "ack" {
		t.Fatalf("peer read %q, %v: bytes written under the partition crossed it", got, err)
	}
}

func TestCloseUnblocksPartitionWait(t *testing.T) {
	ln, wrapped, _ := lnPair(t, Config{Seed: 17})
	ln.Partition(Outbound)
	done := make(chan struct{})
	go func() {
		wrapped.Write([]byte("x"))
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	wrapped.Close()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Write still blocked after Close")
	}
}
