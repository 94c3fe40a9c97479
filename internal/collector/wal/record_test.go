package wal

import (
	"bytes"
	"testing"

	"netseer/internal/faultfs"
)

// sealedLog writes records equal-sized records into segment 1 of a fresh
// log in dir and closes it, so a reopen finds them in one sealed segment.
// It returns the segment's size in bytes.
func sealedLog(t *testing.T, dir string, records int) int64 {
	t.Helper()
	w, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 300)
	var size int64
	for i := 0; i < records; i++ {
		if _, err := w.Append(payload, false); err != nil {
			t.Fatal(err)
		}
		size += recordedLen(payload)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return size
}

// countingFS counts the Read calls made on files it opens.
type countingFS struct {
	faultfs.FS
	reads *int
}

func (c countingFS) Open(path string) (faultfs.File, error) {
	f, err := c.FS.Open(path)
	if err != nil {
		return nil, err
	}
	return countingFile{File: f, reads: c.reads}, nil
}

type countingFile struct {
	faultfs.File
	reads *int
}

func (f countingFile) Read(p []byte) (int, error) {
	*f.reads++
	return f.File.Read(p)
}

// TestRecordReaderReadsAhead pins the mechanism: Replay and Scrub read a
// sealed segment in readBufSize pieces, not two read calls a record.
func TestRecordReaderReadsAhead(t *testing.T) {
	const records = 2000
	dir := t.TempDir()
	size := sealedLog(t, dir, records)
	var reads int
	w, err := Open(dir, Options{FS: countingFS{FS: faultfs.OS, reads: &reads}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	limit := int((size+readBufSize-1)/readBufSize) + 2

	reads = 0
	st, err := w.Replay(func([]byte) error { return nil })
	if err != nil || st.Records != records {
		t.Fatalf("replay: %d records, %v", st.Records, err)
	}
	if reads > limit {
		t.Fatalf("replaying %d records (%d B) issued %d reads, want at most %d", records, size, reads, limit)
	}

	reads = 0
	rep, err := w.Scrub()
	if err != nil || rep.Records != records || len(rep.Quarantined) != 0 {
		t.Fatalf("scrub: %+v, %v", rep, err)
	}
	if reads > limit {
		t.Fatalf("scrubbing %d records (%d B) issued %d reads, want at most %d", records, size, reads, limit)
	}
}

// TestRecordReaderAllocsDoNotGrowWithLog: Replay and Scrub allocate per
// call and per file — the reader, its read-ahead, one payload buffer, the
// file open — never per record, so ten times the log costs the same
// allocations. The slack absorbs sync.Pool, which the race detector
// empties at random; one allocation a record would be 2 700 more.
func TestRecordReaderAllocsDoNotGrowWithLog(t *testing.T) {
	const slack = 2
	allocs := func(records int) (replay, scrub float64) {
		dir := t.TempDir()
		sealedLog(t, dir, records)
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		replay = testing.AllocsPerRun(20, func() {
			if _, err := w.Replay(func([]byte) error { return nil }); err != nil {
				t.Fatal(err)
			}
		})
		scrub = testing.AllocsPerRun(20, func() {
			if _, err := w.Scrub(); err != nil {
				t.Fatal(err)
			}
		})
		return replay, scrub
	}
	replaySmall, scrubSmall := allocs(300)
	replayLarge, scrubLarge := allocs(3000)
	if replayLarge > replaySmall+slack {
		t.Errorf("Replay allocates %v times over 300 records, %v over 3000", replaySmall, replayLarge)
	}
	if scrubLarge > scrubSmall+slack {
		t.Errorf("Scrub allocates %v times over 300 records, %v over 3000", scrubSmall, scrubLarge)
	}
	t.Logf("allocations per call: Replay %v, Scrub %v", replaySmall, scrubSmall)
}
