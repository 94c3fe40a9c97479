package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzWALRecord feeds arbitrary bytes to the record reader — the exact
// code path recovery runs over a crash tail, and the collector's over a
// socket. The invariants: never panic, never return a record that does
// not checksum, return io.EOF only at a record boundary, and classify
// every other failure as one of the recovery-stop errors (torn, CRC,
// oversize).
func FuzzWALRecord(f *testing.F) {
	one := AppendRecord(nil, []byte("wal-record-payload"))
	f.Add(one)
	f.Add([]byte{})
	f.Add([]byte{0, 0})                               // torn length word
	f.Add(one[:5])                                    // torn header
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversize length
	// The shapes the collector's wire adds: an ack (the record of an 8 B
	// sequence), a whole header whose payload never came, and a record
	// followed by one cut mid-payload.
	ack := AppendRecord(nil, []byte{0, 0, 0, 0, 0, 0, 0x30, 0x39})
	f.Add(ack)
	f.Add(ack[:RecordHdrLen])
	f.Add(append(AppendRecord(nil, []byte("whole")), ack[:len(ack)-3]...))
	// A crash tail's shapes: several whole records, an empty payload, a
	// record torn in its payload or followed by a torn header, bit rot in
	// the CRC or the payload, a length word past the payload, and zeros.
	var three []byte
	for i := 0; i < 3; i++ {
		three = AppendRecord(three, []byte(fmt.Sprintf("wal-record-%d", i)))
	}
	flip := func(at int, bit byte) []byte {
		out := append([]byte(nil), one...)
		out[at] ^= bit
		return out
	}
	f.Add(three)
	f.Add(AppendRecord(nil, nil))
	f.Add(one[:len(one)-3])
	f.Add(append(append([]byte(nil), one...), three[:6]...))
	f.Add(flip(6, 0x10))
	f.Add(flip(len(one)-1, 0x01))
	f.Add(append(binary.BigEndian.AppendUint32(nil, 200), one[4:]...))
	f.Add(bytes.Repeat([]byte{0}, 64))
	// A frame as the durable server logs it, laid out by hand (this
	// package cannot import the collector's codec): [8 B seq 10][17 B
	// trace ctx: ID 7, parent 9, sampled][batch header: switch 3, time 55,
	// no records].
	var frame []byte
	frame = binary.BigEndian.AppendUint64(frame, 10)
	frame = binary.BigEndian.AppendUint64(frame, 7)
	frame = binary.BigEndian.AppendUint64(frame, 9)
	frame = append(frame, 1)
	frame = binary.BigEndian.AppendUint16(frame, 3)
	frame = binary.BigEndian.AppendUint64(frame, 55)
	frame = binary.BigEndian.AppendUint16(frame, 0)
	f.Add(AppendRecord(nil, frame))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		for {
			payload, err := ReadRecord(r, MaxRecord, nil)
			if err == io.EOF {
				if r.Len() != 0 {
					t.Fatalf("io.EOF with %d bytes unread", r.Len())
				}
				break
			}
			if err != nil {
				if !errors.Is(err, ErrRecordTorn) && !errors.Is(err, ErrRecordCRC) &&
					!errors.Is(err, ErrRecordTooLarge) {
					t.Fatalf("unclassified record error: %v", err)
				}
				if errors.Is(err, io.EOF) {
					t.Fatalf("a broken record reads as a clean end: %v", err)
				}
				break
			}
			// A record the reader accepts must survive a re-frame round
			// trip — recovery hands these bytes straight to the store.
			again, err := ReadRecord(bytes.NewReader(AppendRecord(nil, payload)), MaxRecord, nil)
			if err != nil || !bytes.Equal(again, payload) {
				t.Fatalf("accepted record does not round-trip: %v", err)
			}
		}
	})
}

// FuzzWALReplay runs whole fuzzed segment files through the recovery
// replay loop, in three placements: as the crash-tail segment, as a
// sealed mid-log segment with a valid segment after it, and as a
// quarantined file. Replay must never panic, never report an error for
// corruption (corruption is a clean stop or an explicit gap, not a
// failure), and — the storage-fault contract — corruption in a sealed
// mid-log segment must not cost a single record from the valid segments
// that follow it. It is differential too: the crash tail must replay
// exactly what ReadRecord, one record at a time, reads out of the same
// bytes, and the scrubber must quarantine a mid-log segment exactly when
// replay reports a gap for it.
func FuzzWALReplay(f *testing.F) {
	var seg []byte
	for i := 0; i < 5; i++ {
		seg = AppendRecord(seg, []byte(fmt.Sprintf("segment-record-%d", i)))
	}
	last := len(seg) / 5 // the records are the same length
	f.Add(seg)
	f.Add(seg[:len(seg)-3]) // torn tail
	midCorrupt := append([]byte(nil), seg...)
	midCorrupt[len(midCorrupt)/2] ^= 0xFF // CRC failure mid-segment
	f.Add(midCorrupt)
	f.Add([]byte{})
	f.Add(seg[:len(seg)-last+5])              // torn header: four records, 5 header bytes
	f.Add(seg[:len(seg)-last+RecordHdrLen+6]) // ends mid-payload
	headerRot := append([]byte(nil), seg...)
	headerRot[0] ^= 0x80 // rot in a length word: framing desyncs at once
	f.Add(headerRot)
	f.Add(bytes.Repeat([]byte{0}, 64))
	f.Add(AppendRecord(nil, []byte("lone-record")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}) // oversize length, then EOF
	f.Fuzz(func(t *testing.T, data []byte) {
		// The reference: ReadRecord one record at a time over the bytes.
		var want [][]byte
		var wantErr error
		for r := bytes.NewReader(data); ; {
			p, err := ReadRecord(r, MaxRecord, nil)
			if err != nil {
				if err != io.EOF {
					wantErr = err
				}
				break
			}
			want = append(want, p)
		}

		// Placement 1: the crash-tail segment. Corruption here is the
		// classic torn tail — replay truncates and stops cleanly.
		dir := t.TempDir()
		w, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		w.Close()
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var got [][]byte
		st, err := w2.Replay(func(p []byte) error {
			got = append(got, append([]byte(nil), p...))
			return nil
		})
		if err != nil {
			t.Fatalf("crash-tail replay errored instead of stopping cleanly: %v", err)
		}
		if len(got) != len(want) {
			t.Fatalf("crash-tail replay delivered %d records, ReadRecord reads %d", len(got), len(want))
		}
		for i := range got {
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("crash-tail record %d: replay delivered %q, ReadRecord reads %q", i, got[i], want[i])
			}
		}
		if st.Truncated != (wantErr != nil) {
			t.Fatalf("crash-tail Truncated = %v (%s), ReadRecord stopped on %v", st.Truncated, st.TruncatedAt, wantErr)
		}
		w2.Close()

		// Placement 2: a sealed mid-log segment with a valid sealed
		// segment after it. However the fuzzer mangles segment 1, every
		// record of segment 2 must still replay; a mangled segment 1
		// reports a bounded gap.
		dir = t.TempDir()
		w, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.CutSegment(); err != nil { // seals (empty) segment 1
			t.Fatal(err)
		}
		const tailRecords = 4
		for i := 0; i < tailRecords; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("tail-record-%d", i)), false); err != nil {
				t.Fatal(err)
			}
		}
		w.Close() // flushes the tail records into segment 2
		if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		tails := 0
		st, err = w2.Replay(func(p []byte) error {
			if bytes.HasPrefix(p, []byte("tail-record-")) {
				tails++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("mid-log replay errored instead of reporting a gap: %v", err)
		}
		if tails != tailRecords {
			t.Fatalf("corruption in a sealed mid-log segment cost later records: replayed %d/%d tail records (gaps %v)",
				tails, tailRecords, st.Gaps)
		}
		if len(st.Gaps) > 1 {
			t.Fatalf("one mangled segment reported %d gaps: %v", len(st.Gaps), st.Gaps)
		}
		rep, err := w2.Scrub()
		if err != nil {
			t.Fatal(err)
		}
		mangled := segName(1) + ":"
		for _, q := range rep.Quarantined {
			if !strings.HasPrefix(q, mangled) {
				t.Fatalf("scrub quarantined %s, a segment nobody mangled", q)
			}
		}
		gap := len(st.Gaps) == 1 && strings.HasPrefix(st.Gaps[0], mangled)
		if gap != (len(rep.Quarantined) == 1) {
			t.Fatalf("replay gaps %v but scrub quarantined %v: they judge segment 1 differently", st.Gaps, rep.Quarantined)
		}
		w2.Close()

		// Placement 3: a quarantined file. Its bytes must never be
		// parsed — whatever they are, replay skips it with exactly one
		// gap and never reuses its index.
		dir = t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, segName(1)+quarSuffix), data, 0o644); err != nil {
			t.Fatal(err)
		}
		w2, err = Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer w2.Close()
		st, err = w2.Replay(func(p []byte) error {
			t.Fatal("replay parsed a record out of a quarantined file")
			return nil
		})
		if err != nil {
			t.Fatalf("quarantined replay errored: %v", err)
		}
		if len(st.Gaps) != 1 {
			t.Fatalf("quarantined segment reported %d gaps, want 1: %v", len(st.Gaps), st.Gaps)
		}
	})
}
