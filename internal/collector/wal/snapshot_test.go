package wal_test

// Snapshot fallback driven end to end: the WAL's one snapshot reader
// feeding the collector's decoder, as every restart does.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/fstest"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// storeImages returns the snapshot images of two stores: the older holds
// batches exporter batches of perBatch events, the newer those and as
// many again. At 200 full batches the newer spans two blocks, so its
// columns are long.
func storeImages(batches uint64, perBatch int) (older, newer []byte) {
	st := collector.NewStore()
	evs := make([]fevent.Event, perBatch)
	for seq := uint64(1); seq <= 2*batches; seq++ {
		ts := sim.Time(seq) * sim.Microsecond
		for i := range evs {
			evs[i] = fevent.Event{Type: fevent.TypeCongestion, SwitchID: uint16(1 + seq%3), Timestamp: ts, Count: uint16(i),
				Flow: pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 0) + uint32(seq*7+uint64(i))%900, DstIP: pkt.IP(10, 1, 0, 1), SrcPort: 1000, DstPort: 80, Proto: pkt.ProtoTCP}}
		}
		st.Deliver(&fevent.Batch{SwitchID: uint16(1 + seq%3), Timestamp: ts, Seq: seq, Events: evs})
		if seq == batches {
			older = st.EncodeSnapshot()
		}
	}
	return older, st.EncodeSnapshot()
}

// writeSnapshots writes the older image as a valid snapshot file and
// newest as the bytes of a newer one, and opens the log.
func writeSnapshots(t testing.TB, dir string, older, newest []byte) *wal.WAL {
	t.Helper()
	if err := os.WriteFile(filepath.Join(dir, wal.SnapName(1)), wal.AppendRecord(nil, older), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, wal.SnapName(2)), newest, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// recoveredImage recovers a store from w and returns its snapshot image.
func recoveredImage(t testing.TB, w *wal.WAL) []byte {
	t.Helper()
	st, _, err := collector.RecoverStore(w)
	if err != nil {
		t.Fatalf("RecoverStore: %v", err)
	}
	return st.EncodeSnapshot()
}

// TestCorruptSnapshotFallsBack damages the newest snapshot file in each
// way a record can be bad and requires recovery to pass it over for the
// older one: Snapshot returns the older payload, and RecoverStore builds
// exactly the older store. Nothing the decoder read of a damaged file
// before the verdict is installed, which shows when there is no older
// file to load over it. A length over MaxSnapshot is refused from the
// header alone: the loader is never handed that file.
func TestCorruptSnapshotFallsBack(t *testing.T) {
	older, newer := storeImages(200, fevent.DefaultBatchSize)
	rec := wal.AppendRecord(nil, newer)
	flipped := bytes.Clone(rec)
	flipped[len(flipped)-1] ^= 0xff // the last payload byte: a tail byte of the last event
	tooLarge := bytes.Clone(rec[:wal.RecordHdrLen])
	tooLarge[0], tooLarge[1], tooLarge[2], tooLarge[3] = 0x40, 0, 0, 1 // MaxSnapshot + 1
	cases := []struct {
		name   string
		newest []byte
		loads  int // files the loader is handed, newest first
		reason string
	}{
		{"last payload byte flipped", flipped, 2, wal.ErrRecordCRC.Error()},
		{"cut inside the header", rec[:5], 1, wal.ErrRecordTorn.Error()},
		{"cut mid-column", rec[:len(rec)-1000], 2, wal.ErrRecordTorn.Error()}, // inside the last block's tails
		{"trailing bytes", append(bytes.Clone(rec), 0), 2, "trailing bytes"},
		{"length over MaxSnapshot", append(tooLarge, rec[wal.RecordHdrLen:]...), 1, wal.ErrRecordTooLarge.Error()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := writeSnapshots(t, t.TempDir(), older, tc.newest)
			defer w.Close()
			if got := w.Snapshot(); !bytes.Equal(got, older) {
				t.Fatalf("Snapshot returned %d bytes, want the older image's %d", len(got), len(older))
			}
			if got := recoveredImage(t, w); !bytes.Equal(got, older) {
				t.Fatalf("the recovered store's image is %d bytes, the older snapshot's %d", len(got), len(older))
			}
			var sizes []int
			err := w.ReadSnapshot(func(r io.Reader, n int) error {
				sizes = append(sizes, n)
				_, err := io.Copy(io.Discard, r)
				return err
			})
			if err != nil || len(sizes) != tc.loads || sizes[len(sizes)-1] != len(older) {
				t.Fatalf("ReadSnapshot: %v; the loader was handed payloads of %v bytes, want %d ending with the older's %d", err, sizes, tc.loads, len(older))
			}
			rep, err := w.Scrub()
			if err != nil || len(rep.Quarantined) != 1 || !strings.Contains(rep.Quarantined[0], tc.reason) {
				t.Fatalf("Scrub: %v, quarantined %v, want the newest file for %q", err, rep.Quarantined, tc.reason)
			}
		})
	}

	// With no older snapshot to fall back to, nothing of the damaged one
	// is installed: the store starts empty.
	lone := t.TempDir()
	if err := os.WriteFile(filepath.Join(lone, wal.SnapName(2)), flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(lone, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if got := recoveredImage(t, w); !bytes.Equal(got, collector.NewStore().EncodeSnapshot()) {
		t.Fatalf("a lone snapshot with its last byte flipped left a %d-byte image in the store", len(got))
	}

	// The undamaged record is the snapshot; once it is gone — deleted
	// after Open listed it — the older one is.
	dir := t.TempDir()
	w = writeSnapshots(t, dir, older, rec)
	defer w.Close()
	if got := recoveredImage(t, w); !bytes.Equal(got, newer) {
		t.Fatalf("the recovered store's image is %d bytes, the newer snapshot's %d", len(got), len(newer))
	}
	if err := os.Remove(filepath.Join(dir, wal.SnapName(2))); err != nil {
		t.Fatal(err)
	}
	if got := recoveredImage(t, w); !bytes.Equal(got, older) {
		t.Fatalf("with the newer file gone, the recovered store's image is %d bytes, the older snapshot's %d", len(got), len(older))
	}
}

// TestScrubAppliesRecoverysSnapshotRule: a snapshot file is exactly one
// record and then EOF. An empty file, and a valid record with a second
// valid record after it, both checksum clean record by record — but
// recovery passes them over, so the scrubber must quarantine them rather
// than count them as clean snapshots.
func TestScrubAppliesRecoverysSnapshotRule(t *testing.T) {
	older, newer := storeImages(200, fevent.DefaultBatchSize)
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut, err := w.CutSegment()
	if err != nil {
		t.Fatal(err)
	}
	if err := w.InstallSnapshot(cut, older); err != nil {
		t.Fatal(err)
	}
	w.Close()
	empty, doubled := wal.SnapName(cut+10), wal.SnapName(cut+11)
	if err := os.WriteFile(filepath.Join(dir, empty), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	two := wal.AppendRecord(wal.AppendRecord(nil, newer), []byte("second"))
	if err := os.WriteFile(filepath.Join(dir, doubled), two, 0o644); err != nil {
		t.Fatal(err)
	}

	w, err = wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !bytes.Equal(w.Snapshot(), older) {
		t.Fatalf("Snapshot returned %d bytes, want the older valid image's %d", len(w.Snapshot()), len(older))
	}
	if got := recoveredImage(t, w); !bytes.Equal(got, older) {
		t.Fatalf("the recovered store's image is %d bytes, the older snapshot's %d", len(got), len(older))
	}
	rep, err := w.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Snapshots != 1 || len(rep.Quarantined) != 2 {
		t.Fatalf("scrub counted %d clean snapshots and quarantined %v; want 1 clean and both %s and %s quarantined",
			rep.Snapshots, rep.Quarantined, empty, doubled)
	}
	for _, name := range []string{empty, doubled} {
		if _, err := os.Stat(filepath.Join(dir, name+wal.QuarSuffix)); err != nil {
			t.Fatalf("%s not quarantined: %v", name, err)
		}
	}
}

// TestVerifiedSnapshotLoadErrorIsReturned: a newest snapshot whose
// record verifies but whose image the store rejects is the snapshot, and
// recovery fails with the decoder's error rather than passing it over.
func TestVerifiedSnapshotLoadErrorIsReturned(t *testing.T) {
	older, _ := storeImages(200, fevent.DefaultBatchSize)
	w := writeSnapshots(t, t.TempDir(), older, wal.AppendRecord(nil, []byte("NSS3 is not this store's layout")))
	defer w.Close()
	if _, _, err := collector.RecoverStore(w); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("RecoverStore of a verified image it cannot load: %v", err)
	}
	sentinel := errors.New("loader refused")
	if err := w.ReadSnapshot(func(io.Reader, int) error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("ReadSnapshot returned %v, want the loader's error", err)
	}
}

// FuzzRecoverSnapshot writes arbitrary bytes as the newest snapshot file
// beside a valid older one and recovers a store from the log. No input
// may panic. If the bytes are one record that verifies, the store holds
// exactly that image — or, if the decoder rejects it, recovery fails as
// a fresh store's LoadSnapshot does; otherwise the store is exactly the
// older snapshot's.
// The images are small, so that the fuzzer can minimize an input, and
// the log lives in memory, so that an iteration makes no file-system
// call.
func FuzzRecoverSnapshot(f *testing.F) {
	older, newer := storeImages(2, 3)
	olderRec := wal.AppendRecord(nil, older)
	rec := wal.AppendRecord(nil, newer)
	f.Add(rec)
	f.Add(rec[:len(rec)-100])
	f.Add(append(bytes.Clone(rec), 1, 2, 3))
	flipped := bytes.Clone(rec)
	flipped[len(flipped)/2] ^= 0x10
	f.Add(flipped)
	f.Add([]byte{})
	f.Add([]byte{0x40, 0, 0, 1, 0, 0, 0, 0})
	f.Add(wal.AppendRecord(nil, older[:len(older)-1]))
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference verdict: one whole record, then the file's end.
		var payload []byte
		verified := len(data) >= wal.RecordHdrLen && int(binary.BigEndian.Uint32(data)) == len(data)-wal.RecordHdrLen &&
			binary.BigEndian.Uint32(data[4:]) == crc32.ChecksumIEEE(data[wal.RecordHdrLen:])
		if verified {
			payload = data[wal.RecordHdrLen:]
		}
		w, err := wal.Open("log", wal.Options{FS: memFS{fstest.MapFS{
			"log/" + wal.SnapName(1): {Data: olderRec},
			"log/" + wal.SnapName(2): {Data: data},
		}}})
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		st, _, err := collector.RecoverStore(w)
		switch {
		case !verified && err != nil:
			t.Fatalf("a newest file that does not verify failed recovery: %v", err)
		case !verified:
			if !bytes.Equal(st.EncodeSnapshot(), older) {
				t.Fatal("a newest file that does not verify: the store is not the older snapshot's")
			}
		case err != nil:
			if collector.NewStore().LoadSnapshot(payload) == nil {
				t.Fatalf("recovery refused a verified image LoadSnapshot accepts: %v", err)
			}
		default:
			if !bytes.Equal(st.EncodeSnapshot(), payload) {
				t.Fatal("a verified newest image: the store does not re-encode to it")
			}
		}
	})
}

// memFS is a log directory in memory. It keeps the os semantics
// faultfs.FS asks for as far as opening and recovering a log reaches:
// Create is exclusive, Open read-only, and the rest is refused.
type memFS struct{ fstest.MapFS }

func (memFS) MkdirAll(string, os.FileMode) error       { return nil }
func (memFS) SyncDir(string) error                     { return nil }
func (memFS) CreateTrunc(string) (faultfs.File, error) { return nil, errors.ErrUnsupported }
func (memFS) Rename(string, string) error              { return errors.ErrUnsupported }
func (memFS) Remove(string) error                      { return errors.ErrUnsupported }
func (memFS) Truncate(string, int64) error             { return errors.ErrUnsupported }

func (m memFS) Create(path string) (faultfs.File, error) {
	if _, ok := m.MapFS[path]; ok {
		return nil, &fs.PathError{Op: "create", Path: path, Err: fs.ErrExist}
	}
	f := &fstest.MapFile{}
	m.MapFS[path] = f
	return memWriter{f}, nil
}

func (m memFS) Open(path string) (faultfs.File, error) {
	f, err := m.MapFS.Open(path)
	if err != nil {
		return nil, err
	}
	return memReader{f}, nil
}

// memWriter appends to its file; memReader reads one.
type (
	memWriter struct{ f *fstest.MapFile }
	memReader struct{ fs.File }
)

func (w memWriter) Write(p []byte) (int, error) {
	w.f.Data = append(w.f.Data, p...)
	return len(p), nil
}
func (memWriter) Read([]byte) (int, error)  { return 0, errors.ErrUnsupported }
func (memWriter) Close() error              { return nil }
func (memWriter) Sync() error               { return nil }
func (memReader) Write([]byte) (int, error) { return 0, errors.ErrUnsupported }
func (memReader) Sync() error               { return nil }
