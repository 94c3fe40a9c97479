package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// collect replays w and returns every payload.
func collect(t *testing.T, w *WAL) ([][]byte, ReplayStats) {
	t.Helper()
	var got [][]byte
	st, err := w.Replay(func(p []byte) error {
		got = append(got, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, st
}

func payloadN(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if err := w.AppendDurable(payloadN(i), false); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.Snapshot() != nil {
		t.Error("fresh log reports a snapshot")
	}
	got, st := collect(t, w2)
	if len(got) != n {
		t.Fatalf("replayed %d records, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q, want %q (order or content lost)", i, p, payloadN(i))
		}
	}
	if st.Truncated {
		t.Errorf("clean log reports truncation at %s", st.TruncatedAt)
	}
}

// TestGroupCommit checks that pipelined appends share fsyncs: many
// concurrent AppendDurable calls must finish with far fewer flushes than
// appends, also while 256 B segments rotate under the running commits.
func TestGroupCommit(t *testing.T) {
	for _, seg := range []int64{0, 256} {
		w, err := Open(t.TempDir(), Options{SegmentBytes: seg})
		if err != nil {
			t.Fatal(err)
		}
		const n = 200
		var wg sync.WaitGroup
		errs := make(chan error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs <- w.AppendDurable(payloadN(i), false)
			}(i)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			if err != nil {
				t.Fatalf("segments of %d B: %v", seg, err)
			}
		}
		st := w.Stats()
		if st.Appends != n {
			t.Fatalf("appends = %d, want %d", st.Appends, n)
		}
		if st.PendingDurable != 0 {
			t.Errorf("%d records still pending after AppendDurable returned", st.PendingDurable)
		}
		if st.Fsyncs >= n/2 {
			t.Errorf("segments of %d B: %d fsyncs for %d appends — group commit is not batching", seg, st.Fsyncs, n)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestUnwaitedRecordWaitsForACommit pins what group commit promises a
// record nobody waits for: it is written and fsynced at the next commit
// (WaitDurable, Sync, Close) or rotation, not on a timer, and until then
// Stats().PendingDurable counts it. The buffer holding it stays within a
// segment, because rotation flushes it.
func TestUnwaitedRecordWaitsForACommit(t *testing.T) {
	dir := t.TempDir()
	const seg = 256
	w, err := Open(dir, Options{SegmentBytes: seg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payloadN(0), false); err != nil {
		t.Fatal(err)
	}
	time.Sleep(5 * time.Millisecond) // 25 times the window a timer once gave
	if st := w.Stats(); st.PendingDurable != 1 {
		t.Fatalf("PendingDurable = %d before any commit, want 1", st.PendingDurable)
	}
	if info, err := os.Stat(filepath.Join(dir, segName(1))); err != nil || info.Size() != 0 {
		t.Fatalf("segment before any commit: %v, %v; want it empty", info, err)
	}
	const n = 100
	for i := 1; i < n; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
		w.mu.Lock()
		buffered := len(w.pending)
		w.mu.Unlock()
		if buffered > seg+int(recordedLen(payloadN(i))) {
			t.Fatalf("%d B buffered after append %d, past a %d B segment", buffered, i, seg)
		}
	}
	if st := w.Stats(); st.Rotations == 0 || st.PendingDurable == 0 || st.PendingDurable == n {
		t.Fatalf("after %d unwaited appends: %d rotations, %d pending; want rotations to have made some durable", n, st.Rotations, st.PendingDurable)
	}
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); st.PendingDurable != 0 {
		t.Fatalf("PendingDurable = %d after Sync", st.PendingDurable)
	}
	if _, err := w.Append(payloadN(n), false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got, _ := collect(t, w2); len(got) != n+1 {
		t.Fatalf("replayed %d records, want the %d Close committed", len(got), n+1)
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	for i := 0; i < n; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Rotations == 0 || st.Segments < 2 {
		t.Fatalf("no rotation with 256-byte segments (stats %+v)", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	if len(got) != n {
		t.Fatalf("replayed %d records across segments, want %d", len(got), n)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q, want %q", i, p, payloadN(i))
		}
	}
}

// TestSnapshotTruncatesSegments checks the checkpoint contract: after
// InstallSnapshot(cut, ...), recovery sees the snapshot plus only the
// records appended after the cut.
func TestSnapshotTruncatesSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.CutSegment()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InstallSnapshot(cut, []byte("snapshot-state")); err != nil {
		t.Fatal(err)
	}
	for i := 20; i < 25; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	if st := w.Stats(); st.SegmentsDropped == 0 {
		t.Errorf("snapshot dropped no segments (stats %+v)", st)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.Snapshot(); !bytes.Equal(got, []byte("snapshot-state")) {
		t.Fatalf("recovered snapshot %q, want %q", got, "snapshot-state")
	}
	got, _ := collect(t, w2)
	if len(got) != 5 {
		t.Fatalf("replayed %d post-cut records, want 5", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(20+i)) {
			t.Fatalf("post-cut record %d = %q, want %q", i, p, payloadN(20+i))
		}
	}
}

// TestInstallSnapshotRefusesOversizedImage lowers the snapshot bound and
// installs an image one byte over it: the install fails with
// ErrRecordTooLarge and leaves the directory as it was, so the segments
// it would have covered still hold their records and the older snapshot
// is still the one recovery loads. An image at the bound installs and
// loads.
func TestInstallSnapshotRefusesOversizedImage(t *testing.T) {
	defer func(old int) { maxSnapshot = old }(maxSnapshot)
	maxSnapshot = 64
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendCut := func(from, to int) uint64 {
		t.Helper()
		for i := from; i < to; i++ {
			if _, err := w.Append(payloadN(i), false); err != nil {
				t.Fatal(err)
			}
		}
		cut, err := w.CutSegment()
		if err != nil {
			t.Fatal(err)
		}
		return cut
	}
	listing := func() []string {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	older := []byte("the older snapshot")
	if err := w.InstallSnapshot(appendCut(0, 10), older); err != nil {
		t.Fatal(err)
	}
	cut := appendCut(10, 30)
	before := listing()
	if err := w.InstallSnapshot(cut, make([]byte, maxSnapshot+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Fatalf("installing %d bytes over a %d B bound: error %v, want ErrRecordTooLarge", maxSnapshot+1, maxSnapshot, err)
	}
	if after := listing(); fmt.Sprint(after) != fmt.Sprint(before) {
		t.Fatalf("the refused install changed the directory:\n%v\nwas\n%v", after, before)
	}
	reopened := func() *WAL {
		t.Helper()
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { r.Close() })
		return r
	}
	r := reopened()
	if got, _ := collect(t, r); !bytes.Equal(r.Snapshot(), older) || len(got) != 20 || !bytes.Equal(got[0], payloadN(10)) {
		t.Fatalf("after the refusal recovery reads snapshot %q and %d records, want %q and the 20 after it", r.Snapshot(), len(got), older)
	}
	whole := bytes.Repeat([]byte{7}, maxSnapshot)
	if err := w.InstallSnapshot(cut, whole); err != nil {
		t.Fatalf("an image at the bound: %v", err)
	}
	if got := reopened().Snapshot(); !bytes.Equal(got, whole) {
		t.Fatalf("an image at the bound recovers as %d bytes, want %d", len(got), len(whole))
	}
}

// TestRetainFloorPinsSegments checks that a retained (shed) record's
// segment survives snapshot truncation: its payload exists nowhere but
// the log, so dropping the segment would lose acked data.
func TestRetainFloorPinsSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("shed-payload"), true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	cut, err := w.CutSegment()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InstallSnapshot(cut, []byte("snap")); err != nil {
		t.Fatal(err)
	}
	if st := w.Stats(); !st.Retained {
		t.Error("stats do not report a retain floor")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	found := false
	for _, p := range got {
		if bytes.Equal(p, []byte("shed-payload")) {
			found = true
		}
	}
	if !found {
		t.Fatal("retained shed record did not survive snapshot truncation")
	}
}

// TestRetainFloorUnderConcurrentCheckpointAndShed races retained (shed)
// appends against a checkpoint loop that cuts and snapshots as fast as
// it can. The floor is read and advanced under different critical
// sections than the segment deletion, so this is the interleaving that
// would lose data if the pin leaked: a snapshot deleting the segment a
// shed record just landed in. Every shed payload must survive replay
// exactly once, no matter where the cuts fell.
func TestRetainFloorUnderConcurrentCheckpointAndShed(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{SegmentBytes: 96})
	if err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var checkpoints sync.WaitGroup
	checkpoints.Add(1)
	go func() {
		defer checkpoints.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			cut, err := w.CutSegment()
			if err != nil {
				return
			}
			if err := w.InstallSnapshot(cut, []byte("snap")); err != nil {
				return
			}
		}
	}()

	const appenders = 4
	const perG = 150
	shedPayload := func(g, i int) []byte { return []byte(fmt.Sprintf("shed-g%d-%04d", g, i)) }
	var writers sync.WaitGroup
	for g := 0; g < appenders; g++ {
		writers.Add(1)
		go func(g int) {
			defer writers.Done()
			for i := 0; i < perG; i++ {
				// Every third record is shed: logged with retain so its
				// segment is pinned; the rest are ordinary indexed batches
				// a snapshot may legitimately truncate away.
				if i%3 == 0 {
					if _, err := w.Append(shedPayload(g, i), true); err != nil {
						t.Errorf("append shed g%d i%d: %v", g, i, err)
						return
					}
				} else if _, err := w.Append(payloadN(g*perG+i), false); err != nil {
					t.Errorf("append g%d i%d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	writers.Wait()
	close(stop)
	checkpoints.Wait()
	if t.Failed() {
		return
	}
	if st := w.Stats(); !st.Retained {
		t.Error("stats do not report a retain floor after shed appends")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	counts := make(map[string]int, len(got))
	for _, p := range got {
		counts[string(p)]++
	}
	for g := 0; g < appenders; g++ {
		for i := 0; i < perG; i += 3 {
			if n := counts[string(shedPayload(g, i))]; n != 1 {
				t.Fatalf("shed record g%d i%d replayed %d times, want exactly 1", g, i, n)
			}
		}
	}
}

// TestReplayStopsAtTornTail truncates the last segment mid-record and
// checks recovery keeps the clean prefix, reports the truncation, and
// never errors.
func TestReplayStopsAtTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segName(w.segIdx))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Cut 5 bytes off the final record: torn payload.
	if err := os.Truncate(seg, info.Size()-5); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, st := collect(t, w2)
	if len(got) != n-1 {
		t.Fatalf("replayed %d records from torn log, want %d", len(got), n-1)
	}
	if !st.Truncated || st.TruncatedAt == "" {
		t.Errorf("truncation not reported (stats %+v)", st)
	}
}

// TestReplayStopsAtCorruptRecord flips a byte mid-log and checks replay
// keeps only the prefix — a mid-log hole voids the ordering guarantees
// of everything after it.
func TestReplayStopsAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
		}
	}
	seg := filepath.Join(dir, segName(w.segIdx))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, st := collect(t, w2)
	if !st.Truncated {
		t.Fatal("corrupt mid-log record not detected")
	}
	if len(got) >= 10 {
		t.Fatalf("replayed %d records past a corrupt one", len(got))
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("prefix record %d = %q, want %q", i, p, payloadN(i))
		}
	}
}

// TestCrashTailNeverAppendedTo reopens a log and checks new appends land
// in a fresh segment, leaving the possibly-torn crash tail as it was.
func TestCrashTailNeverAppendedTo(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("first-life"), false); err != nil {
		t.Fatal(err)
	}
	oldSeg := w.segIdx
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	oldSize, err := os.Stat(filepath.Join(dir, segName(oldSeg)))
	if err != nil {
		t.Fatal(err)
	}

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.segIdx <= oldSeg {
		t.Fatalf("reopened log appends to segment %d, old tail was %d", w2.segIdx, oldSeg)
	}
	if _, err := w2.Append([]byte("second-life"), false); err != nil {
		t.Fatal(err)
	}
	newSize, err := os.Stat(filepath.Join(dir, segName(oldSeg)))
	if err != nil {
		t.Fatal(err)
	}
	if newSize.Size() != oldSize.Size() {
		t.Fatalf("old tail segment grew from %d to %d bytes", oldSize.Size(), newSize.Size())
	}
	got, _ := collect(t, w2)
	if len(got) != 1 || !bytes.Equal(got[0], []byte("first-life")) {
		t.Fatalf("replay before new appends = %q, want [first-life]", got)
	}
}

func TestClosedLogRefusesAppends(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("x"), false); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
	if err := w.WaitDurable(99); !errors.Is(err, ErrClosed) {
		t.Fatalf("WaitDurable after close = %v, want ErrClosed", err)
	}
}

func TestOversizePayloadRejected(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(make([]byte, MaxRecord+1), false); err == nil {
		t.Fatal("oversize append accepted")
	}
}

func TestLastSerial(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := w.LastSerial(); got != 0 {
		t.Fatalf("LastSerial before any append = %d", got)
	}
	for i := 1; i <= 3; i++ {
		serial, err := w.Append(payloadN(i), false)
		if err != nil {
			t.Fatal(err)
		}
		if serial != uint64(i) || w.LastSerial() != uint64(i) {
			t.Fatalf("append %d: serial=%d LastSerial=%d", i, serial, w.LastSerial())
		}
	}
}
