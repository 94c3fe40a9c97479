package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// recoverModel is RecoverStore on one goroutine, the reference the
// pipelined recovery must agree with: load the snapshot, then replay the
// tail, viewing and applying each record where it lies.
func recoverModel(w *wal.WAL, records ...func(s *Store, payload []byte) error) (*Store, wal.ReplayStats, error) {
	store := NewStore()
	if err := w.ReadSnapshot(func(r io.Reader, n int) error { return store.readSnapshot(r, n, nil) }); err != nil {
		return nil, wal.ReplayStats{}, fmt.Errorf("collector: recovering snapshot: %w", err)
	}
	st, err := w.Replay(func(payload []byte) error {
		p, err := ViewPayload(payload)
		switch {
		case err == nil:
			store.DeliverPayload(&p)
			return nil
		case len(records) > 0:
			return records[0](store, payload)
		}
		return fmt.Errorf("collector: replaying WAL record: %w", err)
	})
	if err != nil {
		return nil, st, err
	}
	return store, st, nil
}

// logRecords makes handlers that log the store's length and the record
// at every call; the failAt-th call (0: none) fails.
func logRecords(failAt int) func(log *[]string) func(*Store, []byte) error {
	return func(log *[]string) func(*Store, []byte) error {
		return func(s *Store, p []byte) error {
			*log = append(*log, fmt.Sprintf("%d %x", s.Len(), p))
			if len(*log) == failAt {
				return fmt.Errorf("record %d refused", failAt)
			}
			return nil
		}
	}
}

// recoverBoth recovers w with RecoverStore and with recoverModel, each
// given a handler from handler (nil: none), and fails t unless they
// agree — the store's image and MemoryBytes, the ReplayStats, the error
// and the handler's log — and unless RecoverStore has left no goroutine behind.
// It returns RecoverStore's result.
func recoverBoth(t testing.TB, w *wal.WAL, handler func(log *[]string) func(*Store, []byte) error) (*Store, wal.ReplayStats, error) {
	t.Helper()
	var logs [2][]string
	recoverWith := func(recover func(*wal.WAL, ...func(*Store, []byte) error) (*Store, wal.ReplayStats, error), log *[]string) (*Store, wal.ReplayStats, error) {
		if handler == nil {
			return recover(w)
		}
		return recover(w, handler(log))
	}
	base := runtime.NumGoroutine()
	got, gotSt, gotErr := recoverWith(RecoverStore, &logs[0])
	// The reader has closed its channel by the time RecoverStore returns,
	// but may not yet have left its function: allow it that step.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("RecoverStore left %d goroutines behind:\n%s", runtime.NumGoroutine()-base, buf[:runtime.Stack(buf, true)])
		}
	}
	want, wantSt, wantErr := recoverWith(recoverModel, &logs[1])
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("RecoverStore's error %v, the sequential replay's %v", gotErr, wantErr)
	}
	if !reflect.DeepEqual(gotSt, wantSt) {
		t.Fatalf("RecoverStore's replay %+v, the sequential replay's %+v", gotSt, wantSt)
	}
	if (got == nil) != (want == nil) || got != nil && !bytes.Equal(got.EncodeSnapshot(), want.EncodeSnapshot()) {
		t.Fatalf("RecoverStore's store (%d events) is not the sequential replay's (%d)", lenOf(got), lenOf(want))
	}
	if got != nil && got.MemoryBytes() != want.MemoryBytes() {
		t.Fatalf("RecoverStore's store charges %d B, the sequential replay's %d B", got.MemoryBytes(), want.MemoryBytes())
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("the handler saw\n%q\nin RecoverStore, and\n%q\nin the sequential replay", logs[0], logs[1])
	}
	return got, gotSt, gotErr
}

func lenOf(s *Store) int {
	if s == nil {
		return -1
	}
	return s.Len()
}

// shardRecord is a bookkeeping record as a fabric shard logs one: the
// sequence no frame carries, then a tag and a body.
func shardRecord(tag byte, body ...byte) []byte {
	return append(append(binary.BigEndian.AppendUint64(nil, RecordSeq), tag), body...)
}

// segments lists dir's segment files in log order.
func segments(t testing.TB, dir string) []string {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	return segs
}

// openLog opens the log in dir on fs (nil: the OS).
func openLog(t testing.TB, dir string, fs faultfs.FS) *wal.WAL {
	t.Helper()
	w, err := wal.Open(dir, wal.Options{FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// failOpen is a filesystem that cannot open one file.
type failOpen struct {
	faultfs.FS
	name string
}

func (fs failOpen) Open(path string) (faultfs.File, error) {
	if filepath.Base(path) == fs.name {
		return nil, errors.New("injected open failure")
	}
	return fs.FS.Open(path)
}

// TestRecoverStoreIsTheSequentialReplay holds the pipelined RecoverStore
// to the sequential replay it replaced, on every way a recovery ends: the
// same store image, ReplayStats, error and handler calls, and no reader
// left running.
func TestRecoverStoreIsTheSequentialReplay(t *testing.T) {
	// Several segments of tail after a snapshot; every 7th batch is
	// followed by a shard record.
	base := logShape{events: 30_000, flows: 3_000, cut: 0.5, segBytes: 32 << 10}
	withRecords := base
	withRecords.record = func(seq uint64) []byte {
		if seq%7 != 0 {
			return nil
		}
		return shardRecord('C', byte(seq))
	}
	write := func(t *testing.T, sh logShape) (string, [][]byte) {
		dir := t.TempDir()
		_, payloads := writeLog(t, dir, sh)
		return dir, payloads
	}
	// A tail segment past the snapshot's cut, so sealed.
	sealed := func(t *testing.T, dir string) string {
		segs := segments(t, dir)
		if len(segs) < 4 {
			t.Fatalf("the log has %d segments, want a sealed one in the tail", len(segs))
		}
		return segs[len(segs)-3]
	}

	t.Run("snapshot and tail", func(t *testing.T) {
		dir, _ := write(t, base)
		st, rs, err := recoverBoth(t, openLog(t, dir, nil), nil)
		if err != nil || rs.Segments < 3 || rs.Truncated || len(rs.Gaps) != 0 || st.Len() < base.events {
			t.Fatalf("recovered %d events, replay %+v, error %v", lenOf(st), rs, err)
		}
	})
	t.Run("torn final segment", func(t *testing.T) {
		dir, _ := write(t, base)
		segs := segments(t, dir)
		last := segs[len(segs)-1]
		info, err := os.Stat(last)
		if err == nil {
			err = os.Truncate(last, info.Size()-5)
		}
		if err != nil {
			t.Fatal(err)
		}
		if _, rs, err := recoverBoth(t, openLog(t, dir, nil), nil); err != nil || !rs.Truncated {
			t.Fatalf("replay %+v, error %v: want a truncated tail", rs, err)
		}
	})
	t.Run("rotted sealed segment", func(t *testing.T) {
		dir, _ := write(t, base)
		if err := faultfs.FlipByte(sealed(t, dir), 100); err != nil {
			t.Fatal(err)
		}
		if _, rs, err := recoverBoth(t, openLog(t, dir, nil), nil); err != nil || len(rs.Gaps) != 1 {
			t.Fatalf("replay %+v, error %v: want one gap", rs, err)
		}
	})
	t.Run("quarantined segment", func(t *testing.T) {
		dir, _ := write(t, base)
		seg := sealed(t, dir)
		if err := os.Rename(seg, seg+".quarantined"); err != nil {
			t.Fatal(err)
		}
		if _, rs, err := recoverBoth(t, openLog(t, dir, nil), nil); err != nil || len(rs.Gaps) != 1 {
			t.Fatalf("replay %+v, error %v: want one gap", rs, err)
		}
	})
	t.Run("duplicated batches", func(t *testing.T) {
		dir, payloads := write(t, base)
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		// Batches the snapshot holds, then batches the tail holds.
		for _, p := range append(payloads[:50:50], payloads[len(payloads)-50:]...) {
			if _, err := w.Append(p, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		st, _, err := recoverBoth(t, openLog(t, dir, nil), nil)
		if err != nil || st.DupBatches() != 100 {
			t.Fatalf("error %v, %d duplicate batches: want 100", err, st.DupBatches())
		}
	})
	t.Run("records between frames", func(t *testing.T) {
		dir, _ := write(t, withRecords)
		if _, rs, err := recoverBoth(t, openLog(t, dir, nil), logRecords(0)); err != nil || rs.Records == 0 {
			t.Fatalf("replay %+v, error %v", rs, err)
		}
	})
	t.Run("handler error mid-tail", func(t *testing.T) {
		dir, _ := write(t, withRecords)
		if _, _, err := recoverBoth(t, openLog(t, dir, nil), logRecords(20)); err == nil {
			t.Fatal("a failing handler did not fail the recovery")
		}
	})
	t.Run("record without a handler", func(t *testing.T) {
		dir, _ := write(t, withRecords)
		if _, _, err := recoverBoth(t, openLog(t, dir, nil), nil); !errors.Is(err, ErrRecordSeq) {
			t.Fatalf("error %v, want %v", err, ErrRecordSeq)
		}
	})
	t.Run("reader I/O error", func(t *testing.T) {
		dir, _ := write(t, base)
		fs := failOpen{FS: faultfs.OS, name: filepath.Base(sealed(t, dir))}
		if _, _, err := recoverBoth(t, openLog(t, dir, fs), nil); err == nil || !strings.Contains(err.Error(), "injected") {
			t.Fatalf("error %v, want the injected one", err)
		}
	})
	t.Run("segment grown since Open", func(t *testing.T) {
		// The ring is sized to the tail Open saw; a record appended since
		// is larger than any slab.
		dir, _ := write(t, logShape{events: 1, flows: 1})
		w := openLog(t, dir, nil)
		segs := segments(t, dir)
		big := &fevent.Batch{SwitchID: 9, Timestamp: sim.Millisecond, Seq: 1 << 20}
		for i := range 200 {
			big.Events = append(big.Events, fevent.Event{Type: fevent.TypeDrop, Flow: modelFlow(i), SwitchID: 9, Timestamp: sim.Millisecond, Count: 1})
		}
		f, err := os.OpenFile(segs[len(segs)-2], os.O_APPEND|os.O_WRONLY, 0)
		if err == nil {
			_, err = f.Write(wal.AppendRecord(nil, wirePayload(t, big)))
			f.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		if st, _, err := recoverBoth(t, w, nil); err != nil || st.Len() != 250 {
			t.Fatalf("recovered %d events, error %v: want 250", lenOf(st), err)
		}
	})
	// The log's snapshot files, oldest first.
	snapshots := func(t *testing.T, dir string) []string {
		snaps, err := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
		if err != nil || len(snaps) == 0 {
			t.Fatalf("no snapshot in %s: %v", dir, err)
		}
		return snaps
	}
	// twice writes base's log, then 400 batches more with a second
	// checkpoint half way; keep puts the first snapshot back beside the
	// second, which removed it. It returns the dir and the second file.
	twice := func(t *testing.T, keep bool) (string, string) {
		dir := t.TempDir()
		src, payloads := writeLog(t, dir, base)
		first := snapshots(t, dir)[0]
		img, err := os.ReadFile(first)
		if err != nil {
			t.Fatal(err)
		}
		w := openLog(t, dir, nil)
		r := rand.New(rand.NewSource(2))
		for k := range 400 {
			seq := uint64(len(payloads) + k + 1)
			b := &fevent.Batch{SwitchID: uint16(1 + k%10), Timestamp: sim.Time(seq) * 10 * sim.Microsecond, Seq: seq}
			for range 20 {
				b.Events = append(b.Events, fevent.Event{Type: fevent.Types[r.Intn(4)], Flow: modelFlow(r.Intn(2 * base.flows)), SwitchID: b.SwitchID, Timestamp: b.Timestamp, Count: 1})
			}
			if _, err = w.Append(wirePayload(t, b), false); err != nil {
				t.Fatal(err)
			}
			src.Deliver(b)
			if k == 200 {
				cut, err := w.CutSegment()
				if err == nil {
					err = w.InstallSnapshot(cut, src.EncodeSnapshot())
				}
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if keep {
			if err := os.WriteFile(first, img, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		snaps := snapshots(t, dir)
		return dir, snaps[len(snaps)-1]
	}
	// The newest snapshot's last byte, a tail byte of its last event, is
	// flipped: its image decodes, the tail is applied into it, and only the
	// checksum at its end voids it.
	t.Run("newest snapshot flipped, older one beside it", func(t *testing.T) {
		dir, newest := twice(t, true)
		if err := faultfs.FlipByte(newest, -1); err != nil {
			t.Fatal(err)
		}
		if st, _, err := recoverBoth(t, openLog(t, dir, nil), nil); err != nil || st.Len() < base.events/2 {
			t.Fatalf("recovered %d events, error %v: want the older snapshot's", lenOf(st), err)
		}
	})
	t.Run("newest snapshot flipped, none older", func(t *testing.T) {
		dir, newest := twice(t, false)
		if err := faultfs.FlipByte(newest, -1); err != nil {
			t.Fatal(err)
		}
		if st, _, err := recoverBoth(t, openLog(t, dir, nil), nil); err != nil || st.Len() == 0 {
			t.Fatalf("recovered %d events, error %v: want the tail alone", lenOf(st), err)
		}
	})
	// The snapshot's record verifies, but its last block holds an invalid
	// type: the blocks fail to decode while the tail is applied.
	t.Run("snapshot blocks invalid", func(t *testing.T) {
		dir, _ := write(t, base)
		snap := snapshots(t, dir)[0]
		rec, err := os.ReadFile(snap)
		if err != nil {
			t.Fatal(err)
		}
		img := rec[wal.RecordHdrLen:]
		events := int(binary.LittleEndian.Uint32(img[20:]))
		n := events - (events-1)/blockLen*blockLen // the last block's events
		img[len(img)-n*tailLen-n] = 0              // its first type byte
		if err := os.WriteFile(snap, wal.AppendRecord(nil, img), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := recoverBoth(t, openLog(t, dir, nil), nil); err == nil || !strings.Contains(err.Error(), "invalid type") {
			t.Fatalf("error %v, want the snapshot's invalid type", err)
		}
	})
	// A checkpoint after exactly cut events, of batches of 64 from three
	// switches over a growing set of flows; the batch after it continues
	// the run before it (same switch, same stamp).
	cutAt := func(t *testing.T, cut int) string {
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{SegmentBytes: 256 << 10})
		if err != nil {
			t.Fatal(err)
		}
		st, r := NewStore(), rand.New(rand.NewSource(3))
		b := &fevent.Batch{}
		for seq := uint64(1); st.Len() < cut+300*64 && err == nil; seq++ {
			if st.Len() != cut {
				b.SwitchID, b.Timestamp = uint16(1+seq%3), sim.Time(seq)*sim.Microsecond
			}
			b.Seq, b.Events = seq, b.Events[:0]
			for n := 64; n > 0 && (st.Len() >= cut || st.Len()+len(b.Events) < cut); n-- {
				b.Events = append(b.Events, fevent.Event{Type: fevent.Types[r.Intn(4)], Flow: modelFlow(r.Intn(100 + int(seq))), SwitchID: b.SwitchID, Timestamp: b.Timestamp, Count: 1})
			}
			if _, err = w.Append(wirePayload(t, b), false); err == nil {
				st.Deliver(b)
			}
			if st.Len() == cut && err == nil {
				var c uint64
				if c, err = w.CutSegment(); err == nil {
					err = w.InstallSnapshot(c, st.EncodeSnapshot())
				}
			}
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	for _, cut := range []int{blockLen, blockLen - 1013} {
		t.Run(fmt.Sprintf("checkpoint at event %d", cut), func(t *testing.T) {
			if st, _, err := recoverBoth(t, openLog(t, cutAt(t, cut), nil), nil); err != nil || st.Len() != cut+300*64 {
				t.Fatalf("recovered %d events, error %v: want %d", lenOf(st), err, cut+300*64)
			}
		})
	}
	// A snapshot whose record verifies but holds no image fails the
	// recovery while the reader waits: for a slab, having filled every
	// one with a long tail of small frames; or for the verdict on a held
	// record.
	badSnapshot := func(t *testing.T, events int, first []byte) string {
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cut, err := w.CutSegment()
		if err == nil {
			err = w.InstallSnapshot(cut, []byte("no image"))
		}
		if first != nil && err == nil {
			_, err = w.Append(first, false)
		}
		r := rand.New(rand.NewSource(1))
		for seq := uint64(1); seq <= uint64(events) && err == nil; seq++ {
			b := &fevent.Batch{SwitchID: 1, Timestamp: sim.Time(seq), Seq: seq,
				Events: []fevent.Event{{Type: fevent.TypeDrop, Flow: modelFlow(r.Intn(100)), SwitchID: 1, Timestamp: sim.Time(seq), Count: 1}}}
			_, err = w.Append(wirePayload(t, b), false)
		}
		if err == nil {
			err = w.Close()
		}
		if err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("snapshot fails, reader awaits a slab", func(t *testing.T) {
		dir := badSnapshot(t, 3*readAheadFrames*readAheadSlabs, nil)
		if _, _, err := recoverBoth(t, openLog(t, dir, nil), nil); err == nil || !strings.Contains(err.Error(), "recovering snapshot") {
			t.Fatalf("error %v, want the snapshot's", err)
		}
	})
	t.Run("snapshot fails, reader awaits a verdict", func(t *testing.T) {
		dir := badSnapshot(t, 10, shardRecord('M'))
		if _, _, err := recoverBoth(t, openLog(t, dir, nil), logRecords(0)); err == nil || !strings.Contains(err.Error(), "recovering snapshot") {
			t.Fatalf("error %v, want the snapshot's", err)
		}
	})
}

// FuzzRecoverStore holds RecoverStore to the sequential replay on logs
// the input shapes: each op byte appends a frame — its sequence (low
// nibble: repeats from one switch are duplicates; op i's switch is
// 1 + i mod 5) and its size (bits 4–6: 7k events, or blockLen/64 for
// k = 7, so 64 such frames fill a block) — or, with the top bit set, a
// shard record; the checkpoint falls before op cut, an older one
// before op older−1 if older is non-zero and falls first, and is put back
// beside the newest, which removed it; flip, if non-zero, flips byte
// flip−1 (modulo its size) of the newest snapshot file; and tear bytes
// come off the end of the last segment. Segments are 2 KiB, so a log of
// a few dozen ops has several. Each log is recovered with and without a
// handler.
func FuzzRecoverStore(f *testing.F) {
	f.Add(uint8(0), uint8(0), uint8(0), uint16(0), []byte{0x31, 0x62, 0x63})
	f.Add(uint8(3), uint8(0), uint8(0), uint16(7), []byte{0x61, 0x62, 0x85, 0x63, 0x64, 0x61, 0x90, 0x65, 0x66})
	f.Add(uint8(255), uint8(0), uint8(0), uint16(0), bytes.Repeat([]byte{0x61, 0x62, 0x63, 0xc0}, 30))
	f.Add(uint8(20), uint8(0), uint8(0), uint16(300), bytes.Repeat([]byte{0x11, 0x6e, 0x6f, 0x80, 0x6d}, 40))
	f.Fuzz(func(t *testing.T, cut, older, flip uint8, tear uint16, ops []byte) {
		if len(ops) > 300 {
			ops = ops[:300]
		}
		dir := t.TempDir()
		w, err := wal.Open(dir, wal.Options{SegmentBytes: 2 << 10})
		if err != nil {
			t.Fatal(err)
		}
		st := NewStore()
		var kept string // the older snapshot file
		var keptImg []byte
		for i, op := range ops {
			if i == int(cut) || i == int(older)-1 && i < int(cut) {
				c, err := w.CutSegment()
				if err == nil {
					err = w.InstallSnapshot(c, st.EncodeSnapshot())
				}
				if err != nil {
					t.Fatal(err)
				}
				if i != int(cut) {
					snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap"))
					kept = snaps[0]
					if keptImg, err = os.ReadFile(kept); err != nil {
						t.Fatal(err)
					}
				}
			}
			payload := shardRecord('R', op)
			if op&0x80 == 0 {
				seq, ts := uint64(op&0x0f)+1, sim.Time(i+1)
				b := &fevent.Batch{SwitchID: uint16(1 + i%5), Timestamp: ts, Seq: seq}
				n := 7 * int(op>>4&7)
				if n == 49 {
					n = blockLen / 64
				}
				for k := range n {
					b.Events = append(b.Events, fevent.Event{Type: fevent.Types[(i+k)%4], Flow: modelFlow(k % 5), SwitchID: b.SwitchID, Timestamp: ts, Count: 1})
				}
				payload = wirePayload(t, b)
				st.Deliver(b)
			}
			if _, err := w.Append(payload, false); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if kept != "" {
			if _, err := os.Stat(kept); errors.Is(err, os.ErrNotExist) {
				err = os.WriteFile(kept, keptImg, 0o644)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.snap")); flip > 0 && len(snaps) > 0 {
			newest := snaps[len(snaps)-1]
			info, err := os.Stat(newest)
			if err == nil {
				err = faultfs.FlipByte(newest, int64(flip-1)%info.Size())
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if segs := segments(t, dir); tear > 0 && len(segs) > 0 {
			last := segs[len(segs)-1]
			info, err := os.Stat(last)
			if err == nil {
				err = os.Truncate(last, max(0, info.Size()-int64(tear)))
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		w = openLog(t, dir, nil)
		recoverBoth(t, w, logRecords(0))
		recoverBoth(t, w, nil)
	})
}

// BenchmarkRecoverStore recovers 2 M events over 200 K flows drawn
// Zipf-1, the recover_wal workload's log, from three logs: all of it in
// the snapshot, all of it in the tail, and half in each. It reports the
// time an event. Recovery reads the tail beside the snapshot's loading
// and applies it while the snapshot's blocks decode, so half costs less
// than the mean of the other two: about 0.85 of it at GOMAXPROCS=2 on a
// 2-vCPU VM (0.74–1.05 over six runs).
func BenchmarkRecoverStore(b *testing.B) {
	const events, flows = 2_000_000, 200_000
	for _, bc := range []struct {
		name string
		cut  float64
	}{{"snapshot", 1}, {"tail", 0}, {"half", 0.5}} {
		b.Run(bc.name, func(b *testing.B) {
			dir := b.TempDir()
			src, _ := writeLog(b, dir, logShape{events: events, flows: flows, zipf: true, cut: bc.cut})
			n := src.Len()
			src = nil
			w := openLog(b, dir, nil)
			runtime.GC()
			b.ResetTimer()
			for range b.N {
				if _, _, err := RecoverStore(w); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/event")
		})
	}
}
