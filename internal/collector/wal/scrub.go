package wal

// The background scrubber. Sealed segments and installed snapshots are
// immutable, which makes them silent: a record that rotted after its
// fsync is only discovered when a recovery trips over it — at which
// point the old replay semantics threw away every later segment too.
// Scrub re-reads the immutable files through the readers recovery uses,
// verifies the CRCs, and quarantines a corrupt file by renaming it
// aside (durably, with a directory fsync): the next recovery skips it
// with an explicit ReplayStats.Gaps entry instead of silently
// truncating, and the loss is bounded to the rotted file the moment it
// is detected rather than compounding until the next crash.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// ScrubReport summarizes one scrub pass.
type ScrubReport struct {
	// Segments / Snapshots count immutable files that verified clean.
	Segments  int
	Snapshots int
	// Records is the total records CRC-verified: every good record of a
	// segment, clean or corrupt, plus one per clean snapshot.
	Records uint64
	// Quarantined lists the file names renamed aside this pass, with
	// the reason appended.
	Quarantined []string
}

// Scrub re-reads every sealed segment (all live segments except the
// active one) and every installed snapshot, verifying record framing
// and CRCs, and quarantines corrupt files. A snapshot is judged by
// recovery's rule — exactly one record, then EOF — so an empty one or
// one with anything after its record is quarantined, not counted clean
// while recovery passes it over. It is safe to run while the log is
// appending — sealed files are immutable, the active segment is never
// read, and a file a concurrent checkpoint deletes mid-scrub is
// simply skipped. Passes serialize against each other.
func (w *WAL) Scrub() (ScrubReport, error) {
	w.scrubMu.Lock()
	defer w.scrubMu.Unlock()
	var rep ScrubReport

	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return rep, ErrClosed
	}
	active := w.segIdx
	segs := make([]uint64, 0, len(w.segSizes))
	var largest int64
	for idx, size := range w.segSizes {
		if idx != active {
			segs = append(segs, idx)
			largest = max(largest, size)
		}
	}
	w.mu.Unlock()
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })

	entries, err := w.fs.ReadDir(w.dir)
	if err != nil {
		return rep, err
	}
	var snaps []string
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &idx); n != 1 || e.Name() != snapName(idx) {
			continue
		}
		snaps = append(snaps, e.Name())
		if info, err := e.Info(); err == nil {
			largest = max(largest, info.Size())
		}
	}

	rr := newRecordReader(largest)
	for _, idx := range segs {
		path := filepath.Join(w.dir, segName(idx))
		recs, err := w.verifySegment(rr, path)
		rep.Records += recs
		if err == nil {
			rep.Segments++
			continue
		}
		if os.IsNotExist(err) {
			continue // checkpoint truncation won the race; nothing to scrub
		}
		if qerr := w.quarantineFile(path); qerr != nil {
			return rep, qerr
		}
		rep.Quarantined = append(rep.Quarantined, fmt.Sprintf("%s: %v", segName(idx), err))
		w.mu.Lock()
		delete(w.segSizes, idx)
		w.quarantined++
		w.mu.Unlock()
	}

	for _, name := range snaps {
		path := filepath.Join(w.dir, name)
		verified, err := readSnapshot(w.fs, path, rr.br, nil)
		if verified {
			rep.Records++
			rep.Snapshots++
			continue
		}
		if os.IsNotExist(err) {
			continue
		}
		if qerr := w.quarantineFile(path); qerr != nil {
			return rep, qerr
		}
		rep.Quarantined = append(rep.Quarantined, fmt.Sprintf("%s: %v", name, err))
		w.mu.Lock()
		w.quarantined++
		w.mu.Unlock()
	}

	w.mu.Lock()
	w.scrubs++
	w.mu.Unlock()
	return rep, nil
}

// verifySegment reads the segment at path through rr, verifying framing
// and CRCs, and returns how many records checked out. Any framing or
// checksum failure — including trailing garbage — is the error.
func (w *WAL) verifySegment(rr *recordReader, path string) (uint64, error) {
	f, err := w.fs.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	rr.reset(f)
	var recs uint64
	for {
		_, err := rr.next(MaxRecord)
		if err == io.EOF {
			return recs, nil
		}
		if err != nil {
			return recs, err
		}
		recs++
	}
}

// quarantineFile durably renames path aside under quarSuffix. A file
// already gone (checkpoint race) is not an error.
func (w *WAL) quarantineFile(path string) error {
	if err := w.fs.Rename(path, path+quarSuffix); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return err
	}
	return w.fs.SyncDir(w.dir)
}
