package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"netseer/internal/faultfs"
)

// Options tunes a WAL. Zero fields take defaults.
type Options struct {
	// SegmentBytes rotates the active segment once it grows past this
	// size (default 8 MiB).
	SegmentBytes int64
	// FS is the filesystem the log runs on (default faultfs.OS). Tests
	// swap in a faultfs.Fault to script disk failures; the hot append
	// path never touches it, so the indirection costs nothing there.
	FS faultfs.FS
}

func (o Options) withDefaults() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.FS == nil {
		o.FS = faultfs.OS
	}
	return o
}

// ErrClosed reports an operation on a closed WAL.
var ErrClosed = errors.New("wal: closed")

// Stats is a point-in-time snapshot of the log's counters.
type Stats struct {
	// Appends / AppendedBytes count records and payload bytes written.
	Appends, AppendedBytes uint64
	// Fsyncs counts disk flushes; Appends/Fsyncs is the group-commit
	// batching factor.
	Fsyncs uint64
	// Rotations counts segment rolls, Snapshots installed snapshots,
	// SegmentsDropped segments deleted by snapshot truncation.
	Rotations, Snapshots, SegmentsDropped uint64
	// Segments is the number of live segment files (closed + active);
	// SizeBytes their total size.
	Segments  int
	SizeBytes int64
	// PendingDurable is how many appended records still await an fsync.
	PendingDurable uint64
	// Retained reports whether shed batches have pinned old segments
	// against truncation (cleared only by reopening the log).
	Retained bool
	// Scrubs counts completed Scrub passes; SegmentsQuarantined counts
	// files (segments or snapshots) a scrub renamed aside after a CRC
	// failure.
	Scrubs              uint64
	SegmentsQuarantined uint64
}

// ReplayStats summarizes one recovery replay.
type ReplayStats struct {
	// Segments is how many tail segment files were read.
	Segments int
	// Records / Bytes count successfully replayed records.
	Records, Bytes uint64
	// Truncated reports that replay stopped at a torn or corrupt record
	// in the FINAL segment — the classic crash tail; TruncatedAt names
	// the file and the reason. Everything before the bad record was
	// replayed, everything after is discarded — those records were
	// never acked durable, so the exporter retransmits them.
	Truncated   bool
	TruncatedAt string
	// Gaps lists sealed segments (and quarantined files) whose records
	// could not all be replayed: latent bit rot detected mid-log, or a
	// segment the scrubber quarantined. Unlike the crash tail, records
	// in a gap MAY have been acked — the gap is the explicit report of
	// that loss, instead of a silent truncation of everything after it.
	// Replay continues past a gap: later segments' records all land.
	Gaps []string
}

// WAL is an append-only, group-committed, segmented log with snapshot
// checkpoints. It is safe for concurrent use.
type WAL struct {
	dir string
	opt Options
	fs  faultfs.FS

	mu   sync.Mutex
	cond *sync.Cond // broadcast when a commit ends

	f        faultfs.File // active segment
	segIdx   uint64       // active segment index
	segSize  int64
	segSizes map[uint64]int64 // live segments (closed + active) → size

	appendSerial uint64 // serial of the last record written
	syncedSerial uint64 // serial covered by the last successful fsync
	ioErr        error  // sticky I/O error: the log refuses further appends
	closed       bool
	// syncing is the segment the running commit fsyncs with mu released,
	// nil while none runs: at most one commit is in flight. A rotation
	// leaves that segment open for the commit to close.
	syncing faultfs.File

	retainFloor uint64 // lowest segment pinned by shed batches; ^0 = none
	// pending buffers framed records destined for the active segment but
	// not yet written to it: a commit batches the write() as well as the
	// fsync, so an append is one memcpy, not one syscall. A commit or a
	// rotation drains it before touching the disk, so it never outgrows
	// SegmentBytes.
	pending []byte

	// Recovery artifacts from Open, consumed by ReadSnapshot/Replay: the
	// snapshot files newest first with the size of the largest, the
	// segments and the quarantined segments in index order. The log
	// reads no snapshot until asked.
	snaps      []uint64
	snapMax    int64
	replaySegs []uint64
	quarSegs   []uint64

	// scrubMu serializes Scrub passes (never held with mu).
	scrubMu sync.Mutex

	appends, appendedBytes     uint64
	fsyncs, rotations          uint64
	snapshots, segmentsDropped uint64
	scrubs, quarantined        uint64
}

const noRetain = ^uint64(0)

// quarSuffix marks a file the scrubber moved aside after a CRC failure.
// Quarantined files are invisible to normal recovery except as explicit
// Gaps entries, and their indexes are never reused.
const quarSuffix = ".quarantined"

func segName(idx uint64) string  { return fmt.Sprintf("wal-%08d.seg", idx) }
func snapName(idx uint64) string { return fmt.Sprintf("snap-%08d.snap", idx) }

// Open opens (or creates) the log in dir and performs the scan phase of
// recovery: it lists the snapshot files and the tail segments to replay,
// and reads neither. Call ReadSnapshot and Replay to rebuild upper-layer
// state, then Append at will. Appends always go to a fresh segment —
// a possibly-torn crash tail is never appended to.
func Open(dir string, opt Options) (*WAL, error) {
	opt = opt.withDefaults()
	fs := opt.FS
	if err := fs.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	entries, err := fs.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs, snaps, quar []uint64
	var snapMax int64
	segSizes := make(map[uint64]int64)
	for _, e := range entries {
		var idx uint64
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg", &idx); n == 1 && e.Name() == segName(idx) {
			segs = append(segs, idx)
			if info, err := e.Info(); err == nil {
				segSizes[idx] = info.Size()
			}
		}
		if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &idx); n == 1 && e.Name() == snapName(idx) {
			snaps = append(snaps, idx)
			if info, err := e.Info(); err == nil {
				snapMax = max(snapMax, info.Size())
			}
		}
		if n, _ := fmt.Sscanf(e.Name(), "wal-%d.seg"+quarSuffix, &idx); n == 1 && e.Name() == segName(idx)+quarSuffix {
			quar = append(quar, idx)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] > snaps[j] }) // newest first
	sort.Slice(quar, func(i, j int) bool { return quar[i] < quar[j] })

	w := &WAL{
		dir:         dir,
		opt:         opt,
		fs:          fs,
		segSizes:    segSizes,
		snaps:       snaps,
		snapMax:     snapMax,
		replaySegs:  segs,
		quarSegs:    quar,
		retainFloor: noRetain,
	}
	w.cond = sync.NewCond(&w.mu)

	next := uint64(1)
	if len(segs) > 0 && segs[len(segs)-1] >= next {
		next = segs[len(segs)-1] + 1
	}
	if len(snaps) > 0 && snaps[0] >= next {
		next = snaps[0] + 1
	}
	// Never reuse an index a quarantined twin still occupies: a fresh
	// wal-N.seg beside wal-N.seg.quarantined would make the next
	// recovery's ordering ambiguous.
	if len(quar) > 0 && quar[len(quar)-1] >= next {
		next = quar[len(quar)-1] + 1
	}
	if err := w.openSegment(next); err != nil {
		return nil, err
	}
	return w, nil
}

// readSnapshot streams the record of the snapshot file at path through
// br to load, with its payload length; a nil load reads the payload only
// to verify it. The file must hold exactly one record, of at most
// MaxSnapshot bytes, which is checked before any payload is read;
// whatever load leaves unread is read through the checksum before the
// verdict. If the record verified, err is load's error; if not, it is
// why the record is bad, whatever load did.
func readSnapshot(fs faultfs.FS, path string, br *bufio.Reader, load func(r io.Reader, n int) error) (verified bool, err error) {
	f, err := fs.Open(path)
	if err != nil {
		return false, err
	}
	defer f.Close()
	br.Reset(f)
	var hdr [RecordHdrLen]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		if err == io.EOF {
			return false, errors.New("wal: snapshot file holds no record")
		}
		return false, fmt.Errorf("%w: header: %w", ErrRecordTorn, err)
	}
	n := binary.BigEndian.Uint32(hdr[0:4])
	if n > uint32(maxSnapshot) {
		return false, fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, n, maxSnapshot)
	}
	sr := &snapshotReader{br: br, left: int(n), want: binary.BigEndian.Uint32(hdr[4:8])}
	if load != nil {
		err = load(sr, int(n))
	}
	var (
		rest [4 << 10]byte
		bad  error
	)
	for bad == nil {
		_, bad = sr.Read(rest[:])
	}
	if bad != io.EOF {
		return false, bad
	}
	return true, err
}

// openSegment creates the segment file for idx and makes it active.
// Caller must not hold mu (Open) or must hold it (rotate) — the method
// itself takes no locks.
func (w *WAL) openSegment(idx uint64) error {
	f, err := w.fs.Create(filepath.Join(w.dir, segName(idx)))
	if err != nil {
		return err
	}
	if err := w.fs.SyncDir(w.dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segIdx = idx
	w.segSize = 0
	w.segSizes[idx] = 0
	return nil
}

// ReadSnapshot streams the payload of the newest snapshot Open found
// whose record verifies to load, with the payload's length, and returns
// load's error; with no such snapshot it returns nil. Files are tried
// newest first, each through the one snapshot reader: a file whose
// record is torn, fails its CRC, is longer than MaxSnapshot or has bytes
// after it is passed over for the next older one — even after load has
// read part of it, so load must keep what it decodes aside until its
// reader returns io.EOF, which it does only once the whole record has
// verified. An error load returns for a record that verifies is not a
// reason to pass the file over: that file is the snapshot, and the error
// is returned.
func (w *WAL) ReadSnapshot(load func(r io.Reader, n int) error) error {
	if len(w.snaps) == 0 {
		return nil
	}
	br := newReadBuf(w.snapMax)
	for _, idx := range w.snaps {
		if verified, err := readSnapshot(w.fs, filepath.Join(w.dir, snapName(idx)), br, load); verified {
			return err
		}
	}
	return nil
}

// Snapshot reads the payload of the newest valid snapshot Open found
// (ReadSnapshot's rule) into a fresh buffer, or returns nil if the log
// has none. It reads the file on every call: the log keeps no image.
func (w *WAL) Snapshot() []byte {
	var img []byte
	// The loader fails only on a record that does not verify, and
	// ReadSnapshot passes such a file over rather than return the error.
	_ = w.ReadSnapshot(func(r io.Reader, n int) error {
		buf := make([]byte, n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		if _, err := r.Read(nil); err != io.EOF {
			return err
		}
		img = buf
		return nil
	})
	return img
}

// Replay streams every surviving record of the tail segments to fn in
// append order. A torn or corrupt record in the final segment — the
// classic crash tail — stops replay cleanly (no error, Truncated set):
// records past it were never acknowledged as durable, so upper layers
// lose nothing an ack promised. Corruption in a SEALED segment is latent
// bit rot, and may cover acked records: replay skips the rest of that
// segment with an explicit entry in Gaps and keeps going — the store's
// (switch, seq) dedup makes records idempotent facts, so the loss is
// bounded to the rotted segment and loudly reported instead of silently
// truncating every later segment. Segments the scrubber quarantined are
// skipped the same way. A non-nil error from fn aborts the replay and
// is returned. Every record is read through one recordReader, into one
// buffer: the payload is fn's only for the duration of the call.
func (w *WAL) Replay(fn func(payload []byte) error) (ReplayStats, error) {
	var st ReplayStats
	var largest int64
	w.mu.Lock()
	for _, idx := range w.replaySegs {
		largest = max(largest, w.segSizes[idx])
	}
	w.mu.Unlock()
	rr := newRecordReader(largest)
	type segItem struct {
		idx  uint64
		quar bool
	}
	items := make([]segItem, 0, len(w.replaySegs)+len(w.quarSegs))
	for _, idx := range w.replaySegs {
		items = append(items, segItem{idx: idx})
	}
	for _, idx := range w.quarSegs {
		items = append(items, segItem{idx: idx, quar: true})
	}
	sort.Slice(items, func(i, j int) bool { return items[i].idx < items[j].idx })
	var lastLive uint64
	if n := len(w.replaySegs); n > 0 {
		lastLive = w.replaySegs[n-1]
	}
	for _, it := range items {
		if it.quar {
			st.Gaps = append(st.Gaps, segName(it.idx)+quarSuffix+": skipped (quarantined by scrub)")
			continue
		}
		idx := it.idx
		path := filepath.Join(w.dir, segName(idx))
		f, err := w.fs.Open(path)
		if err != nil {
			// A truncated-away segment (concurrent checkpoint) is not a
			// replay failure — unless a quarantined twin appeared since
			// the Open scan, which is a gap; anything else is an error.
			if os.IsNotExist(err) {
				if qf, qerr := w.fs.Open(path + quarSuffix); qerr == nil {
					qf.Close()
					st.Gaps = append(st.Gaps, segName(idx)+quarSuffix+": skipped (quarantined by scrub)")
				}
				continue
			}
			return st, err
		}
		st.Segments++
		rr.reset(f)
		for {
			payload, err := rr.next(MaxRecord)
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				if idx == lastLive {
					// Crash tail: keep the prefix, drop the rest.
					st.Truncated = true
					st.TruncatedAt = fmt.Sprintf("%s: %v", segName(idx), err)
					return st, nil
				}
				// Bit rot in a sealed segment: explicit gap, keep going.
				st.Gaps = append(st.Gaps, fmt.Sprintf("%s: %v", segName(idx), err))
				f = nil
				break
			}
			if err := fn(payload); err != nil {
				f.Close()
				return st, err
			}
			st.Records++
			st.Bytes += uint64(len(payload))
		}
		if f != nil {
			f.Close()
		}
	}
	return st, nil
}

// Append buffers one record for the active segment and returns its
// serial without writing it: the next commit (WaitDurable, Sync, Close)
// or rotation writes and fsyncs it. Pair it with WaitDurable before
// acknowledging the payload to anyone.
// retain pins the record's segment against snapshot truncation; the
// collector sets it for shed batches, whose contents exist nowhere but
// the log.
func (w *WAL) Append(payload []byte, retain bool) (uint64, error) {
	if len(payload) > MaxRecord {
		return 0, fmt.Errorf("wal: %d-byte payload exceeds MaxRecord", len(payload))
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.ioErr != nil {
		err := w.ioErr
		w.mu.Unlock()
		return 0, err
	}
	if w.segSize >= w.opt.SegmentBytes {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	w.pending = AppendRecord(w.pending, payload)
	w.segSize += recordedLen(payload)
	w.segSizes[w.segIdx] = w.segSize
	w.appendSerial++
	serial := w.appendSerial
	w.appends++
	w.appendedBytes += uint64(len(payload))
	if retain && w.segIdx < w.retainFloor {
		w.retainFloor = w.segIdx
	}
	w.mu.Unlock()
	return serial, nil
}

// LastSerial returns the serial of the most recently appended record
// (0 before the first append). WaitDurable(LastSerial()) therefore
// covers everything logged so far — the gate the server uses when
// acking a replayed batch whose original record may still be unsynced.
func (w *WAL) LastSerial() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appendSerial
}

// AppendDurable appends the record and blocks until it is fsynced —
// the synchronous convenience over Append+WaitDurable.
func (w *WAL) AppendDurable(payload []byte, retain bool) error {
	serial, err := w.Append(payload, retain)
	if err != nil {
		return err
	}
	return w.WaitDurable(serial)
}

// WaitDurable blocks until every record up to serial is fsynced (or the
// log fails or closes). A nil return is the durability promise an ack
// may be built on. The caller commits: unless a commit is running, it
// runs one itself; otherwise it waits for that one and looks again, so
// records appended during an fsync share the next.
func (w *WAL) WaitDurable(serial uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.waitLocked(serial)
}

func (w *WAL) waitLocked(serial uint64) error {
	for w.syncedSerial < serial && w.ioErr == nil && !w.closed {
		if w.syncing != nil {
			w.cond.Wait()
		} else {
			w.commitLocked()
		}
	}
	if w.syncedSerial >= serial {
		return nil
	}
	if w.ioErr != nil {
		return w.ioErr
	}
	return ErrClosed
}

// poisonLocked records err as the log's sticky I/O error — first error
// wins — and wakes every WaitDurable waiter so none keeps blocking on a
// durability promise the disk can no longer make. Caller holds mu.
//
// Poison is permanent for the life of the handle (fail-stop): after a
// failed fsync the kernel may have dropped the dirty pages, so even an
// fsync that later "succeeds" proves nothing about the bytes buffered
// before the failure. Nothing is ever re-reported durable.
func (w *WAL) poisonLocked(err error) {
	if w.ioErr == nil {
		w.ioErr = err
	}
	w.cond.Broadcast()
}

// Err returns the log's sticky I/O error, or nil while the log is
// healthy. A non-nil Err means the log is poisoned: every later Append,
// Sync, and WaitDurable fails with it, and the owning shard should
// declare itself durability-failed.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.ioErr
}

// flushPendingLocked writes the buffered records to the active segment.
// Caller holds mu and the log is healthy. A write failure poisons the
// log: a partial write leaves a torn record at the tail, and nothing may
// land after it.
func (w *WAL) flushPendingLocked() error {
	if len(w.pending) == 0 {
		return nil
	}
	if _, err := w.f.Write(w.pending); err != nil {
		w.pending = nil
		w.poisonLocked(err)
		return err
	}
	w.pending = w.pending[:0]
	return nil
}

// rotateLocked seals the active segment (flushing buffered records and
// fsyncing, so every serial so far is durable) and opens the next one.
// Caller holds mu. Every failure path poisons the log here, not at the
// call sites: a rotation that could not flush, fsync, or open the next
// segment leaves the tail in an unknown state, and no caller may be
// trusted to remember the poisoning step.
func (w *WAL) rotateLocked() error {
	if err := w.flushPendingLocked(); err != nil {
		return err // flushPendingLocked poisoned
	}
	w.fsyncs++
	if err := w.f.Sync(); err != nil {
		w.poisonLocked(err)
		return err
	}
	w.syncedSerial = w.appendSerial
	// A commit fsyncing this segment with mu released closes it when its
	// fsync returns; closing it here would fail that fsync.
	if w.f != w.syncing {
		if err := w.f.Close(); err != nil {
			w.poisonLocked(err)
			return err
		}
	}
	w.rotations++
	if err := w.openSegment(w.segIdx + 1); err != nil {
		w.poisonLocked(err)
		return err
	}
	return nil
}

// commitLocked is group commit: it writes the buffered records and
// fsyncs the active segment with mu released, then marks every record
// it wrote durable or poisons the log. Caller holds mu, the log is
// healthy and no commit runs. Appends keep buffering during the fsync
// and wait for the next commit.
func (w *WAL) commitLocked() {
	if err := w.flushPendingLocked(); err != nil {
		return // flushPendingLocked poisoned
	}
	target, f := w.appendSerial, w.f
	w.syncing = f
	w.mu.Unlock()
	err := f.Sync()
	w.mu.Lock()
	w.syncing = nil
	w.fsyncs++
	if f != w.f { // rotated away mid-fsync: rotation left it to us
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		w.poisonLocked(err)
	} else if target > w.syncedSerial {
		w.syncedSerial = target
	}
	w.cond.Broadcast()
}

// Sync blocks until every appended record is durable — the drain path's
// final flush.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	return w.waitLocked(w.appendSerial)
}

// CutSegment seals the active segment and starts a new one, returning
// the new segment's index — the checkpoint boundary. Everything appended
// before the cut lives in segments < cut; a snapshot capturing upper
// state *after* the cut therefore covers them, and InstallSnapshot(cut,
// ...) may delete them. The caller must ensure no record is in the
// appended-but-not-applied window across the cut+capture (the collector
// server holds its ingest barrier for exactly this).
func (w *WAL) CutSegment() (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if w.ioErr != nil {
		return 0, w.ioErr
	}
	if err := w.rotateLocked(); err != nil {
		return 0, err
	}
	return w.segIdx, nil
}

// InstallSnapshot durably writes a snapshot covering all segments below
// cut, then deletes the segments and snapshots it supersedes. Segments
// pinned by shed batches (retain floor) survive regardless: their
// contents exist only in the log and are re-indexed by the next replay.
// An image over MaxSnapshot bytes, which recovery would pass over, is
// refused with ErrRecordTooLarge before any file is touched.
func (w *WAL) InstallSnapshot(cut uint64, snapshot []byte) error {
	if len(snapshot) > maxSnapshot {
		return fmt.Errorf("%w: a snapshot of %d bytes > %d", ErrRecordTooLarge, len(snapshot), maxSnapshot)
	}
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.mu.Unlock()

	framed := AppendRecord(make([]byte, 0, RecordHdrLen+len(snapshot)), snapshot)
	if err := faultfs.ReplaceFile(w.fs, filepath.Join(w.dir, snapName(cut)), framed); err != nil {
		return err
	}

	w.mu.Lock()
	w.snapshots++
	floor := w.retainFloor
	var drop []uint64
	for idx := range w.segSizes {
		if idx < cut && idx < floor && idx != w.segIdx {
			drop = append(drop, idx)
		}
	}
	for _, idx := range drop {
		delete(w.segSizes, idx)
	}
	w.mu.Unlock()

	for _, idx := range drop {
		if err := w.fs.Remove(filepath.Join(w.dir, segName(idx))); err == nil {
			w.mu.Lock()
			w.segmentsDropped++
			w.mu.Unlock()
		}
	}
	// Older snapshot files are superseded by the one just installed.
	entries, err := w.fs.ReadDir(w.dir)
	if err == nil {
		for _, e := range entries {
			var idx uint64
			if n, _ := fmt.Sscanf(e.Name(), "snap-%d.snap", &idx); n == 1 && e.Name() == snapName(idx) && idx < cut {
				w.fs.Remove(filepath.Join(w.dir, e.Name()))
			}
		}
	}
	return w.fs.SyncDir(w.dir)
}

// Stats snapshots the log's counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	var size int64
	for _, s := range w.segSizes {
		size += s
	}
	return Stats{
		Appends:             w.appends,
		AppendedBytes:       w.appendedBytes,
		Fsyncs:              w.fsyncs,
		Rotations:           w.rotations,
		Snapshots:           w.snapshots,
		SegmentsDropped:     w.segmentsDropped,
		Segments:            len(w.segSizes),
		SizeBytes:           size,
		PendingDurable:      w.appendSerial - w.syncedSerial,
		Retained:            w.retainFloor != noRetain,
		Scrubs:              w.scrubs,
		SegmentsQuarantined: w.quarantined,
	}
}

// Dir returns the log directory.
func (w *WAL) Dir() string { return w.dir }

// Close commits the buffered records and closes the log; appends after
// it fail with ErrClosed. It returns the log's error if a record
// appended before it is not durable.
func (w *WAL) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return nil
	}
	w.closed = true
	for w.syncing != nil {
		w.cond.Wait()
	}
	if w.ioErr == nil && w.syncedSerial < w.appendSerial {
		w.commitLocked()
	}
	var err error
	if w.syncedSerial < w.appendSerial {
		err = w.ioErr
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	return err
}
