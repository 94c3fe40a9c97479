package seqtrack

import (
	"testing"
	"testing/quick"
)

func TestInOrderNoNotification(t *testing.T) {
	var tr Tracker
	for id := uint32(0); id < 1000; id++ {
		if n, ok := tr.Observe(id); ok {
			t.Fatalf("notification %+v for in-order ID %d", n, id)
		}
	}
}

func TestSingleGap(t *testing.T) {
	var tr Tracker
	tr.Observe(10)
	tr.Observe(11)
	n, ok := tr.Observe(15) // 12,13,14 lost
	if !ok {
		t.Fatal("no notification for gap")
	}
	if n.FromID != 12 || n.ToID != 14 || n.Count() != 3 {
		t.Errorf("notification = %+v", n)
	}
	// Sequence continues cleanly afterwards.
	if _, ok := tr.Observe(16); ok {
		t.Error("spurious notification after gap")
	}
}

func TestSingleLoss(t *testing.T) {
	var tr Tracker
	tr.Observe(0)
	n, ok := tr.Observe(2)
	if !ok || n.FromID != 1 || n.ToID != 1 || n.Count() != 1 {
		t.Fatalf("notification = %+v", n)
	}
}

func TestFirstPacketSynchronizes(t *testing.T) {
	var tr Tracker
	if n, ok := tr.Observe(12345); ok {
		t.Errorf("notification on first packet: %+v", n)
	}
}

func TestWraparoundGap(t *testing.T) {
	var tr Tracker
	tr.Observe(0xfffffffe)
	n, ok := tr.Observe(2) // 0xffffffff, 0, 1 lost
	if !ok {
		t.Fatal("no notification across wraparound")
	}
	if n.FromID != 0xffffffff || n.ToID != 1 || n.Count() != 3 {
		t.Errorf("notification = %+v count=%d", n, n.Count())
	}
}

func TestWraparoundClean(t *testing.T) {
	var tr Tracker
	if _, ok := tr.Observe(0xffffffff); ok {
		t.Fatal("sync notification")
	}
	if n, ok := tr.Observe(0); ok {
		t.Errorf("clean wraparound produced %+v", n)
	}
}

func TestBackwardJumpResyncs(t *testing.T) {
	var tr Tracker
	tr.Observe(1000)
	if n, ok := tr.Observe(10); ok {
		t.Errorf("backward jump produced notification %+v", n)
	}
	// After resync, the next in-order packet is clean.
	if n, ok := tr.Observe(11); ok {
		t.Errorf("post-resync packet produced %+v", n)
	}
}

func TestMultipleGapEpisodes(t *testing.T) {
	var tr Tracker
	var gaps, lost uint32
	for _, id := range []uint32{0, 5, 6, 10} { // gaps 1-4 and 7-9
		if n, ok := tr.Observe(id); ok {
			gaps++
			lost += n.Count()
		}
	}
	if gaps != 2 || lost != 7 {
		t.Errorf("gaps=%d lost=%d, want 2, 7", gaps, lost)
	}
}

func TestLostAccountingProperty(t *testing.T) {
	// Drop an arbitrary subset of a sequence: total lost across
	// notifications equals the number of dropped IDs (ignoring a possibly
	// dropped tail, which no subsequent packet can reveal).
	f := func(dropMask []bool) bool {
		var tr Tracker
		tr.Observe(0) // sync
		want := uint64(0)
		var notified uint64
		pendingDrops := uint64(0)
		for i, drop := range dropMask {
			id := uint32(i + 1)
			if drop {
				pendingDrops++
				continue
			}
			want += pendingDrops
			pendingDrops = 0
			if n, ok := tr.Observe(id); ok {
				notified += uint64(n.Count())
			}
		}
		return notified == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestNotificationCodec(t *testing.T) {
	n := Notification{FromID: 0xfffffff0, ToID: 5}
	b := n.AppendTo(nil)
	if len(b) != NotificationLen {
		t.Fatalf("encoded %d bytes", len(b))
	}
	g, err := DecodeNotification(b)
	if err != nil || g != n {
		t.Fatalf("round trip: %+v, %v", g, err)
	}
	if _, err := DecodeNotification(b[:7]); err == nil {
		t.Error("truncated notification decoded")
	}
}

func TestNotificationCodecQuick(t *testing.T) {
	f := func(from, to uint32) bool {
		n := Notification{FromID: from, ToID: to}
		g, err := DecodeNotification(n.AppendTo(nil))
		return err == nil && g == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func BenchmarkObserveInOrder(b *testing.B) {
	var tr Tracker
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Observe(uint32(i))
	}
}
