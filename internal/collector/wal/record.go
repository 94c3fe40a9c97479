// Package wal gives the collector a durable, crash-recoverable backing
// log. Ingested batches are appended as length+CRC-framed records to an
// append-only segment file; fsyncs are group-committed so concurrent
// appenders amortize one disk flush; segments rotate at a size bound; and
// a periodic snapshot of the upper store lets old segments be deleted.
// On restart, Open lists the snapshots and segments and reads neither:
// ReadSnapshot streams the newest snapshot that verifies to its loader,
// checking its CRC as the bytes pass (the log keeps no copy), and Replay
// streams the tail segments after it, stopping cleanly at the first torn
// or corrupt record — a crash mid-write can only cost unacked suffix
// records, never a parse panic or a misread.
//
// The package stores opaque payloads ([]byte); a standalone collector logs
// each wire frame's payload, so the record on disk is the frame that
// travelled the wire, recovery reuses the wire decoder and the store's
// (switch, seq) dedup makes replay idempotent.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Record framing — the one image the collector writes and reads with a
// length and a checksum: a wire frame and an ack (internal/collector), a
// segment record and a snapshot file:
//
//	[4 B length][4 B CRC-32][payload]
//
// length counts the payload only; the CRC covers the payload.

// RecordHdrLen is the fixed record prefix: length + CRC.
const RecordHdrLen = 8

// MaxRecord bounds one log record. It must admit the largest wire frame
// payload (collector.MaxFrame) with headroom; anything larger in a segment
// is treated as corruption.
const MaxRecord = 1 << 20

// MaxSnapshot bounds a snapshot record: InstallSnapshot refuses a larger
// image and recovery passes one over. Snapshots hold the whole store
// (≈14.7 B an event), so the bound is some 70 M events.
const MaxSnapshot = 1 << 30

// maxSnapshot is the bound both sides hold a snapshot to: MaxSnapshot,
// but for tests that lower it.
var maxSnapshot = MaxSnapshot

var (
	// ErrRecordCRC reports a record whose checksum does not match — bit
	// rot or a torn write that landed mid-payload.
	ErrRecordCRC = errors.New("wal: record CRC mismatch")
	// ErrRecordTooLarge reports a length field beyond the caller's bound —
	// almost always a torn or overwritten length word.
	ErrRecordTooLarge = errors.New("wal: record length exceeds limit")
	// ErrRecordTorn reports a record cut off mid-header or mid-payload: the
	// classic crash-during-append tail.
	ErrRecordTorn = errors.New("wal: torn record")
)

// AppendRecord appends the framed encoding of payload to buf. It sums
// payload where it lies rather than sealing the copy: summing bytes just
// written measured about 20 % slower for an 830-byte frame payload.
func AppendRecord(buf, payload []byte) []byte {
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(payload)))
	buf = binary.BigEndian.AppendUint32(buf, crc32.ChecksumIEEE(payload))
	return append(buf, payload...)
}

// SealRecord makes rec a record: it fills in the length and CRC of the
// payload encoded after rec's first RecordHdrLen bytes, so a writer can
// encode a payload in place behind a reserved header.
func SealRecord(rec []byte) {
	binary.BigEndian.PutUint32(rec[0:4], uint32(len(rec)-RecordHdrLen))
	binary.BigEndian.PutUint32(rec[4:8], crc32.ChecksumIEEE(rec[RecordHdrLen:]))
}

// recordedLen is the on-disk size of a payload once framed.
func recordedLen(payload []byte) int64 { return int64(RecordHdrLen + len(payload)) }

// ReadRecord reads one framed record from r into buf, verifying length
// bound and checksum. io.EOF is returned only at a clean record boundary;
// a record cut off partway through — a payload missing after a whole
// header included — maps to ErrRecordTorn, a bad checksum to ErrRecordCRC,
// and a length over max to ErrRecordTooLarge before anything is allocated
// for it: the recovery loop treats all three as "stop here, keep the
// prefix". A torn record's error also wraps the read error that cut it
// (a deadline, a reset).
//
// buf is regrown when the record does not fit, and the returned payload
// aliases it: a caller that passes the payload back in reads a whole
// stream through one buffer (the header is read into it too, its two
// fields taken out before the payload overwrites it) and must be done
// with a record before reading the next.
func ReadRecord(r io.Reader, max uint32, buf []byte) ([]byte, error) {
	if cap(buf) < RecordHdrLen {
		buf = make([]byte, RecordHdrLen)
	}
	hdr := buf[:RecordHdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if err == io.EOF {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: header: %w", ErrRecordTorn, err)
	}
	n, sum := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	if n > max {
		return nil, fmt.Errorf("%w: %d > %d", ErrRecordTooLarge, n, max)
	}
	if uint32(cap(buf)) < n {
		buf = make([]byte, n)
	}
	payload := buf[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header was whole: this is a tear, not a boundary
		}
		return nil, fmt.Errorf("%w: payload: %w", ErrRecordTorn, err)
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, ErrRecordCRC
	}
	return payload, nil
}

// readBufSize caps a log reader's read-ahead: one read call fetches up
// to this much of a log file, however many records it holds.
const readBufSize = 256 << 10

// newReadBuf returns a read-ahead buffer for files of at most largest
// bytes: as large as the largest, up to readBufSize, so a small log does
// not pay for the cap on every recovery and scrub.
func newReadBuf(largest int64) *bufio.Reader {
	return bufio.NewReaderSize(nil, int(min(largest, readBufSize)))
}

// recordReader is the one loop over a segment's records: Replay and
// Scrub read through it. It reads ahead through a bufio.Reader, so a file
// costs ⌈size/readBufSize⌉ read calls, not two a record, and
// decodes every record into one reused buffer, so a payload is the
// caller's only until the next call. One lives for a Replay or a Scrub;
// the WAL never keeps one.
type recordReader struct {
	br  *bufio.Reader
	buf []byte
}

func newRecordReader(largest int64) *recordReader {
	return &recordReader{br: newReadBuf(largest)}
}

// reset points the reader at the start of f, keeping both buffers.
func (rr *recordReader) reset(f io.Reader) { rr.br.Reset(f) }

// next reads the next record, with ReadRecord's error taxonomy.
func (rr *recordReader) next(max uint32) ([]byte, error) {
	payload, err := ReadRecord(rr.br, max, rr.buf)
	if err == nil {
		rr.buf = payload
	}
	return payload, err
}

// snapshotReader hands a snapshot file's one record to its reader as it
// reads it: the one snapshot reader, through which recovery, Snapshot and
// Scrub all go, so Scrub quarantines exactly the snapshots recovery would
// pass over. It yields the payload's bytes, and no more, summing their
// CRC as they pass; once they are all out, a Read returns io.EOF only if
// the sum matches the header's and the file ends there, and otherwise
// the reason the record is bad. A reader that decodes the payload
// therefore learns that the record verified from the same read that tells
// it the payload is over.
type snapshotReader struct {
	br        *bufio.Reader
	left      int    // payload bytes not yet handed out
	sum, want uint32 // CRC-32 of the bytes handed out; the header's
	verdict   error  // set once left is 0: io.EOF for a verified record
}

func (sr *snapshotReader) Read(p []byte) (int, error) {
	if sr.left == 0 {
		if sr.verdict == nil {
			sr.verdict = sr.verify()
		}
		return 0, sr.verdict
	}
	if len(p) > sr.left {
		p = p[:sr.left]
	}
	n, err := sr.br.Read(p)
	sr.sum = crc32.Update(sr.sum, crc32.IEEETable, p[:n])
	sr.left -= n
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // the header was whole: this is a tear
		}
		sr.left, sr.verdict = 0, fmt.Errorf("%w: payload: %w", ErrRecordTorn, err)
		return n, sr.verdict
	}
	return n, nil
}

// verify is the verdict on a record whose payload has all been read.
func (sr *snapshotReader) verify() error {
	if sr.sum != sr.want {
		return ErrRecordCRC
	}
	if _, err := sr.br.ReadByte(); err != io.EOF {
		if err == nil {
			err = errors.New("wal: trailing bytes after snapshot record")
		}
		return err
	}
	return io.EOF
}
