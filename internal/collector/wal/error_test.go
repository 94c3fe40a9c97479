package wal

import (
	"errors"
	"testing"
)

// TestSyncForcesDurability covers the synchronous flush path the drain
// logic uses: Sync must leave nothing pending, be idempotent, and refuse
// a closed log.
func TestSyncForcesDurability(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	serial, err := w.Append(payloadN(1), false)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	if st := w.Stats(); st.PendingDurable != 0 {
		t.Errorf("PendingDurable = %d after Sync, want 0", st.PendingDurable)
	}
	// WaitDurable after Sync must not block.
	if err := w.WaitDurable(serial); err != nil {
		t.Fatalf("wait after sync: %v", err)
	}
	// Idempotent: nothing new pending, the clean-exit branch.
	if err := w.Sync(); err != nil {
		t.Fatalf("second sync: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync on closed log = %v, want ErrClosed", err)
	}
}

func TestDirAccessor(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.Dir() != dir {
		t.Errorf("Dir() = %q, want %q", w.Dir(), dir)
	}
}

// TestWriteErrorPoisonsLog forces the segment write to fail (the fd is
// closed out from under the log) and checks the sticky-error contract:
// the first flush reports the failure and every later operation refuses
// with the same error — nothing may land after a possibly-torn record.
func TestWriteErrorPoisonsLog(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(payloadN(1), false); err != nil {
		t.Fatal(err)
	}
	// Nothing has waited, so the buffered record is still unwritten;
	// closing the file makes the next flush fail.
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()

	if err := w.Sync(); err == nil {
		t.Fatal("Sync succeeded on a closed segment file")
	}
	if _, err := w.Append(payloadN(2), false); err == nil {
		t.Error("Append succeeded on a poisoned log")
	}
	if err := w.AppendDurable(payloadN(3), false); err == nil {
		t.Error("AppendDurable succeeded on a poisoned log")
	}
	if _, err := w.CutSegment(); err == nil {
		t.Error("CutSegment succeeded on a poisoned log")
	}
	if err := w.Sync(); err == nil {
		t.Error("second Sync lost the sticky error")
	}
	w.Close()
}

// TestRotateFlushFailurePropagates poisons the fd and then forces a
// rotation: the rotate path must flush buffered records first, surface
// the failure through Append, and poison the log.
func TestRotateFlushFailurePropagates(t *testing.T) {
	w, err := Open(t.TempDir(), Options{SegmentBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	// First append fits (rotation triggers on the *next* append once the
	// segment is over the bound).
	if _, err := w.Append(payloadN(1), false); err != nil {
		t.Fatal(err)
	}
	w.mu.Lock()
	w.f.Close()
	w.mu.Unlock()
	if _, err := w.Append(payloadN(2), false); err == nil {
		t.Fatal("Append succeeded though rotation could not flush")
	}
	if _, err := w.Append(payloadN(3), false); err == nil {
		t.Error("poisoned log accepted a further append")
	}
	w.Close()
}

// TestClosedLogRefusesMaintenance covers the ErrClosed guards on the
// checkpoint entry points.
func TestClosedLogRefusesMaintenance(t *testing.T) {
	w, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := w.CutSegment(); !errors.Is(err, ErrClosed) {
		t.Errorf("CutSegment = %v, want ErrClosed", err)
	}
	if err := w.InstallSnapshot(1, []byte("snap")); !errors.Is(err, ErrClosed) {
		t.Errorf("InstallSnapshot = %v, want ErrClosed", err)
	}
	if err := w.AppendDurable(payloadN(1), false); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendDurable = %v, want ErrClosed", err)
	}
	// Close is idempotent.
	if err := w.Close(); err != nil {
		t.Errorf("second Close = %v", err)
	}
}

// TestReplayAbortsOnCallbackError distinguishes an fn failure (an upper
// layer refusing a record — a real error) from corruption (a clean stop).
func TestReplayAbortsOnCallbackError(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(payloadN(i), false); err != nil {
			t.Fatal(err)
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
	boom := errors.New("store refused record")
	n := 0
	_, err = w2.Replay(func(p []byte) error {
		n++
		if n == 2 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("replay error = %v, want the callback's error", err)
	}
	if n != 2 {
		t.Errorf("callback ran %d times, want 2 (abort at the failure)", n)
	}
}
