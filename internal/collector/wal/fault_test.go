package wal

// Deterministic storage-fault tests: the WAL against a scripted
// faultfs.Fault. These pin the fail-stop contract (every fsync failure
// path poisons the log and wakes every waiter; nothing is ever
// re-reported durable) and the scrub/quarantine/gap recovery semantics.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"netseer/internal/faultfs"
)

// TestRotateFsyncFailurePoisonsLog is the regression test for the
// rotation path: the fsync inside rotateLocked fails, and the log must
// be poisoned — later appends and WaitDurable all see the error, not
// just the append that triggered the rotation.
func TestRotateFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 1, FailSyncAt: 1})
	// Nothing commits without a waiter, so the first fsync issued is
	// rotation's own.
	w, err := Open(dir, Options{SegmentBytes: 64, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	serial, err := w.Append(bytes.Repeat([]byte("x"), 80), false) // oversizes the segment
	if err != nil {
		t.Fatalf("first append: %v", err)
	}
	_, err = w.Append([]byte("trigger rotation"), false)
	if !errors.Is(err, syscall.EIO) {
		t.Fatalf("rotating append: want EIO, got %v", err)
	}
	if perr := w.Err(); !errors.Is(perr, syscall.EIO) {
		t.Fatalf("Err() = %v, want the rotation EIO", perr)
	}
	if _, err := w.Append([]byte("after poison"), false); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after poison: want EIO, got %v", err)
	}
	if err := w.WaitDurable(serial); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable after poison: want EIO, got %v", err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync after poison: want EIO, got %v", err)
	}
}

// TestSyncFsyncFailurePoisonsLog pins the same contract for the
// synchronous Sync path.
func TestSyncFsyncFailurePoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 1, FailSyncAt: 1})
	w, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	serial, err := w.Append([]byte("one"), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync: want EIO, got %v", err)
	}
	if _, err := w.Append([]byte("two"), false); !errors.Is(err, syscall.EIO) {
		t.Fatalf("append after failed Sync: want EIO, got %v", err)
	}
	if err := w.WaitDurable(serial); !errors.Is(err, syscall.EIO) {
		t.Fatalf("WaitDurable after failed Sync: want EIO, got %v", err)
	}
	// fsyncgate: the disk would accept a retried fsync now, but the log
	// must never un-poison — the dropped bytes are gone.
	if err := w.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("retried Sync must stay poisoned, got %v", err)
	}
}

// TestWaitDurableWaitersWakeOnFsyncEIO blocks a crowd of WaitDurable
// callers mid-group-window and injects an fsync EIO: every single
// waiter must wake with the poison error — none may hang, and none may
// be told its record became durable.
func TestWaitDurableWaitersWakeOnFsyncEIO(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 1, FailSyncAt: 1})
	w, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	const crowd = 16
	errs := make([]error, crowd)
	var wg sync.WaitGroup
	for i := 0; i < crowd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			serial, err := w.Append([]byte(fmt.Sprintf("payload-%02d", i)), false)
			if err != nil {
				errs[i] = err // poisoned before this append: also the EIO
				return
			}
			errs[i] = w.WaitDurable(serial)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("WaitDurable callers still blocked 10s after the injected fsync EIO")
	}
	for i, err := range errs {
		if !errors.Is(err, syscall.EIO) {
			t.Fatalf("waiter %d: got %v, want the poison EIO", i, err)
		}
	}
	if got := w.Stats().PendingDurable; got == 0 {
		t.Fatalf("poisoned log reports nothing pending — it re-reported buffered data durable")
	}
}

// TestENOSPCPoisonsLog runs the disk out of space mid-append stream.
func TestENOSPCPoisonsLog(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 1, WriteBudget: 256})
	w, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var firstErr error
	for i := 0; i < 100 && firstErr == nil; i++ {
		firstErr = w.AppendDurable(payloadN(i), false)
	}
	if !errors.Is(firstErr, syscall.ENOSPC) {
		t.Fatalf("want ENOSPC, got %v", firstErr)
	}
	if _, err := w.Append([]byte("more"), false); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk: want sticky ENOSPC, got %v", err)
	}

	// The bytes that fit before the budget form a valid prefix, possibly
	// with one torn record at the tail — recovery replays it cleanly.
	w.Close()
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, st := collect(t, w2)
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q after ENOSPC recovery", i, p)
		}
	}
	if st.Truncated && !strings.Contains(st.TruncatedAt, "torn") {
		t.Logf("truncated at: %s", st.TruncatedAt)
	}
}

// TestPowerCutKeepsOnlyFsyncedRecords cuts power mid-stream: every
// record acked durable must replay; un-fsynced ones may vanish.
func TestPowerCutKeepsOnlyFsyncedRecords(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 42, TearOnPowerCut: true})
	w, err := Open(dir, Options{FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	const durable = 20
	for i := 0; i < durable; i++ {
		if err := w.AppendDurable(payloadN(i), false); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	// In-flight, never waited on — fair game for the cut.
	for i := durable; i < durable+10; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	fault.PowerCut()
	w.Close() // must not resurrect anything: the filesystem is halted

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, st := collect(t, w2)
	if len(got) < durable {
		t.Fatalf("replayed %d records, want at least the %d acked durable", len(got), durable)
	}
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q after power cut", i, p)
		}
	}
	if len(st.Gaps) != 0 {
		t.Fatalf("power cut must look like a crash tail, not a gap: %v", st.Gaps)
	}
}

// rotten builds a log with three sealed segments plus an empty active
// one, closes it, and returns the middle segment's path.
func rotten(t *testing.T, dir string) string {
	t.Helper()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for seg := 0; seg < 3; seg++ {
		for i := 0; i < 5; i++ {
			if err := w.AppendDurable(payloadN(seg*5+i), false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := w.CutSegment(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, segName(2))
}

// TestReplaySkipsSealedCorruptionWithGap rots a MIDDLE segment: replay
// must report the gap explicitly and still deliver every record of the
// later segments, instead of silently truncating the rest of the log.
func TestReplaySkipsSealedCorruptionWithGap(t *testing.T) {
	dir := t.TempDir()
	mid := rotten(t, dir)
	if err := faultfs.FlipByte(mid, 10); err != nil { // mid-payload of record 5
		t.Fatal(err)
	}
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	got, st := collect(t, w)
	if st.Truncated {
		t.Fatalf("sealed-segment rot must not truncate the tail: %s", st.TruncatedAt)
	}
	if len(st.Gaps) != 1 || !strings.Contains(st.Gaps[0], segName(2)) {
		t.Fatalf("want one gap naming %s, got %v", segName(2), st.Gaps)
	}
	var have []string
	for _, p := range got {
		have = append(have, string(p))
	}
	// Segment 1 (records 0-4) and segment 3 (records 10-14) must be
	// complete; segment 2 contributes nothing after its first record rots.
	for _, i := range []int{0, 1, 2, 3, 4, 10, 11, 12, 13, 14} {
		want := string(payloadN(i))
		found := false
		for _, h := range have {
			if h == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("record %d lost behind the gap; replayed: %v", i, have)
		}
	}
}

// TestScrubQuarantinesRottedSegment: the scrubber detects latent bit
// rot in a sealed segment, quarantines the file durably, and the next
// recovery reports the gap and keeps everything else.
func TestScrubQuarantinesRottedSegment(t *testing.T) {
	dir := t.TempDir()
	mid := rotten(t, dir)
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w.Scrub()
	if err != nil {
		t.Fatalf("clean scrub: %v", err)
	}
	// 3 sealed data segments plus the previous run's empty active one.
	if len(rep.Quarantined) != 0 || rep.Segments != 4 || rep.Records != 15 {
		t.Fatalf("clean scrub report: %+v", rep)
	}

	if err := faultfs.FlipByte(mid, 10); err != nil {
		t.Fatal(err)
	}
	rep, err = w.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0], segName(2)) {
		t.Fatalf("scrub quarantined %v, want %s", rep.Quarantined, segName(2))
	}
	if _, err := os.Stat(mid + quarSuffix); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if _, err := os.Stat(mid); !os.IsNotExist(err) {
		t.Fatalf("rotted segment still live: %v", err)
	}
	st := w.Stats()
	if st.Scrubs != 2 || st.SegmentsQuarantined != 1 {
		t.Fatalf("stats after scrub: %+v", st)
	}
	// A second pass finds nothing new.
	rep, err = w.Scrub()
	if err != nil || len(rep.Quarantined) != 0 {
		t.Fatalf("re-scrub: %+v %v", rep, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovery after quarantine: explicit gap, everything else intact,
	// and the quarantined index is never reused for a fresh segment.
	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, rst := collect(t, w2)
	if len(rst.Gaps) != 1 || !strings.Contains(rst.Gaps[0], "quarantined") {
		t.Fatalf("replay gaps = %v, want one quarantine entry", rst.Gaps)
	}
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10 (both clean segments)", len(got))
	}
	if _, err := w2.Append([]byte("fresh"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, segName(2))); !os.IsNotExist(err) {
		t.Fatalf("quarantined index reused for a live segment")
	}
}

// TestScrubQuarantinesRottedSnapshot: bit rot in an installed snapshot
// is detected and the file set aside; recovery falls back instead of
// half-loading it.
func TestScrubQuarantinesRottedSnapshot(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := w.AppendDurable(payloadN(i), false); err != nil {
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
	snap := filepath.Join(dir, snapName(cut))
	if err := faultfs.FlipByte(snap, -2); err != nil {
		t.Fatal(err)
	}
	rep, err := w.Scrub()
	if err != nil {
		t.Fatalf("scrub: %v", err)
	}
	if len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0], snapName(cut)) {
		t.Fatalf("scrub quarantined %v, want %s", rep.Quarantined, snapName(cut))
	}
	if _, err := os.Stat(snap + quarSuffix); err != nil {
		t.Fatalf("quarantined snapshot missing: %v", err)
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
		t.Fatalf("quarantined snapshot still loaded")
	}
}

// TestScrubOnClosedLog: maintenance on a closed log fails cleanly.
func TestScrubOnClosedLog(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Scrub(); !errors.Is(err, ErrClosed) {
		t.Fatalf("scrub on closed log: %v", err)
	}
}

// TestTornWriteAtRotationPoisonsAndRecovers tears the first write into
// a segment rotation opened: the log fails stop and recovery keeps every
// durable record plus a clean prefix of the torn flush.
func TestTornWriteAtRotationPoisonsAndRecovers(t *testing.T) {
	dir := t.TempDir()
	// Each AppendDurable's commit writes once, and three 19 B records
	// fill a 48 B segment: the 4th write is the first commit after the
	// rotation, into the fresh segment.
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 9, TornWriteAt: 4})
	w, err := Open(dir, Options{SegmentBytes: 48, FS: fault})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var poison error
	for i := 0; i < 10 && poison == nil; i++ {
		poison = w.AppendDurable(payloadN(i), false)
	}
	if !errors.Is(poison, syscall.EIO) {
		t.Fatalf("want EIO from the torn write, got %v", poison)
	}
	if _, err := w.Append([]byte("after"), false); !errors.Is(err, syscall.EIO) {
		t.Fatalf("log not poisoned after torn write: %v", err)
	}
	w.Close()

	w2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	got, _ := collect(t, w2)
	for i, p := range got {
		if !bytes.Equal(p, payloadN(i)) {
			t.Fatalf("record %d = %q after torn-write recovery", i, p)
		}
	}
}

// gateFS holds the first file fsync issued on it until gate is closed,
// closing held once that fsync waits. With failClose every file Close
// fails with errCloseFailed.
type gateFS struct {
	faultfs.FS
	held, gate chan struct{}
	first      atomic.Bool
	failClose  bool
}

var errCloseFailed = errors.New("gateFS: close failed")

func newGateFS() *gateFS {
	return &gateFS{FS: faultfs.OS, held: make(chan struct{}), gate: make(chan struct{})}
}

func (g *gateFS) Create(path string) (faultfs.File, error) {
	f, err := g.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return gateFile{File: f, fs: g}, nil
}

type gateFile struct {
	faultfs.File
	fs *gateFS
}

func (f gateFile) Sync() error {
	if f.fs.first.CompareAndSwap(false, true) {
		close(f.fs.held)
		<-f.fs.gate
	}
	return f.File.Sync()
}

func (f gateFile) Close() error {
	if err := f.File.Close(); err != nil || !f.fs.failClose {
		return err
	}
	return errCloseFailed
}

// heldCommit appends a record, has a waiter commit it, and cuts the
// segment while that commit's fsync is held; it returns the waiter's
// verdict once the fsync is let go.
func heldCommit(t *testing.T, w *WAL, fs *gateFS) error {
	t.Helper()
	serial, err := w.Append(payloadN(0), false)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- w.WaitDurable(serial) }()
	<-fs.held
	if _, err := w.CutSegment(); err != nil {
		close(fs.gate)
		t.Fatalf("cut during a commit's fsync: %v", err)
	}
	close(fs.gate)
	return <-waited
}

// TestRotationDuringCommitKeepsTheLog cuts the segment a commit is
// fsyncing with the log's lock released. Rotation leaves that segment
// for the commit to close: closed under it, the fsync failed with "file
// already closed" and poisoned a healthy log, after which the server
// refused every connection.
func TestRotationDuringCommitKeepsTheLog(t *testing.T) {
	dir := t.TempDir()
	fs := newGateFS()
	w, err := Open(dir, Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if err := heldCommit(t, w, fs); err != nil {
		t.Fatalf("WaitDurable across the cut: %v", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("the cut poisoned the log: %v", err)
	}
	if err := w.AppendDurable(payloadN(1), false); err != nil {
		t.Fatalf("append after the cut: %v", err)
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
	if len(got) != 2 || !bytes.Equal(got[0], payloadN(0)) || !bytes.Equal(got[1], payloadN(1)) {
		t.Fatalf("replayed %q, want both records", got)
	}
}

// TestRotatedSegmentCloseFailurePoisons: the commit closes the segment
// rotated away under its fsync, and a failed close poisons the log as
// rotation's own would. The record stays durable: rotation fsynced it.
func TestRotatedSegmentCloseFailurePoisons(t *testing.T) {
	fs := newGateFS()
	fs.failClose = true
	w, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if err := heldCommit(t, w, fs); err != nil {
		t.Fatalf("WaitDurable of a record rotation fsynced: %v", err)
	}
	if err := w.Err(); !errors.Is(err, errCloseFailed) {
		t.Fatalf("Err() = %v, want the failed close", err)
	}
	if _, err := w.Append(payloadN(1), false); !errors.Is(err, errCloseFailed) {
		t.Fatalf("append after the failed close: %v", err)
	}
}

// TestRotationCloseFailurePoisons: a segment that rotation cannot close
// poisons the log, and CutSegment reports why.
func TestRotationCloseFailurePoisons(t *testing.T) {
	fs := newGateFS()
	close(fs.gate)
	fs.failClose = true
	w, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Append(payloadN(0), false); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CutSegment(); !errors.Is(err, errCloseFailed) {
		t.Fatalf("CutSegment = %v, want the failed close", err)
	}
	if err := w.Err(); !errors.Is(err, errCloseFailed) {
		t.Fatalf("Err() = %v, want the failed close", err)
	}
}

// TestCloseWaitsForTheRunningCommit: Close lets a commit's fsync finish
// instead of closing the segment under it, then closes a healthy log.
func TestCloseWaitsForTheRunningCommit(t *testing.T) {
	fs := newGateFS()
	w, err := Open(t.TempDir(), Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := w.Append(payloadN(0), false)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- w.WaitDurable(serial) }()
	<-fs.held
	closed := make(chan error, 1)
	go func() { closed <- w.Close() }()
	// Close sets closed and then waits for the commit, releasing mu.
	for {
		w.mu.Lock()
		c := w.closed
		w.mu.Unlock()
		if c {
			break
		}
		runtime.Gosched()
	}
	close(fs.gate)
	if err := <-waited; err != nil {
		t.Fatalf("WaitDurable of the running commit: %v", err)
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := w.Err(); err != nil {
		t.Fatalf("Close poisoned the log: %v", err)
	}
}
