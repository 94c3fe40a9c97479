package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/sim"
)

// Wire framing for CPU→backend delivery (§3.6 "reliable TCP-based
// report"), v2: the channel is at-least-once. Every data frame carries a
// client-lifetime sequence number and a CRC so the receiver can detect
// corruption and deduplicate replays; the server answers with cumulative
// acknowledgements.
//
//	data frame (client→server): [4 B length][4 B CRC-32][8 B seq][body]
//	v3 traced frame:            [4 B length][4 B CRC-32][8 B seq|bit63][17 B trace ctx][body]
//	ack frame  (server→client): [8 B cumulative seq][4 B CRC-32]
//
// length counts seq+body. The data-frame CRC covers seq+body; the ack
// CRC covers the 8 sequence bytes. body is one encoded fevent.Batch.
// Sequence numbers count up from a random per-Client starting point and
// never reset for the life of the Client, so a batch replayed over a
// fresh connection keeps its identity (and a restarted exporter cannot
// collide with its previous life) — the Store drops duplicates by
// (switch ID, sequence).
//
// The v3 extension rides on an invariant of v2: the random sequence
// base is drawn with its top two bits cleared and only counts up, so
// bit 63 of the sequence word is always zero in old frames. A frame
// with bit 63 set carries a trace.CtxWireLen trace context (trace ID,
// parent span, flags) between the sequence and the body; the bit is
// stripped on decode, so the logical sequence — and with it acks,
// retransmit windows and (switch, seq) dedup — is unchanged. Old
// readers never see the bit (a v3 sender is paired with a v3 reader by
// deployment), old frames parse unchanged here, and because the WAL
// stores the verified payload verbatim, mixed-version logs replay
// correctly through the same ViewPayload.

// MaxFrame bounds a frame to keep a malformed peer from forcing huge
// allocations.
const MaxFrame = 1 << 20

const (
	// frameHdrLen is the fixed prefix outside the CRC: length + CRC.
	frameHdrLen = 8
	// frameSeqLen is the sequence-number prefix of the frame payload.
	frameSeqLen = 8
	// ackLen is the fixed size of a server→client ack frame.
	ackLen = 12
	// frameTraceBit flags a v3 payload: a trace context follows the
	// sequence word. Never set by the logical sequence itself (the client
	// draws its random base with the top two bits cleared).
	frameTraceBit = uint64(1) << 63
)

var (
	// ErrFrameTooShort reports a frame whose declared length cannot even
	// hold the sequence number.
	ErrFrameTooShort = errors.New("collector: frame shorter than its sequence header")
	// ErrFrameCRC reports a data frame whose checksum does not match.
	ErrFrameCRC = errors.New("collector: frame CRC mismatch")

	errAckCRC = errors.New("collector: ack CRC mismatch")
)

// AppendFrame appends one length-prefixed, checksummed frame for b
// (including its delivery sequence number, and — when the batch carries
// one — its trace context as the v3 frame extension) to dst and returns
// the extended slice. With room for the frame in dst's spare capacity it
// does not allocate — the client encodes straight into its write buffer.
func AppendFrame(dst []byte, b *fevent.Batch) ([]byte, error) {
	start := len(dst)
	var pre [frameHdrLen + frameSeqLen + trace.CtxWireLen]byte
	n := frameHdrLen + frameSeqLen
	seq := b.Seq
	if b.Trace.Valid() {
		seq |= frameTraceBit
		b.Trace.PutWire(pre[n:])
		n += trace.CtxWireLen
	}
	binary.BigEndian.PutUint64(pre[frameHdrLen:], seq)
	dst, err := b.AppendTo(append(dst, pre[:n]...))
	if err != nil {
		return dst[:start], err
	}
	frame := dst[start:]
	binary.BigEndian.PutUint32(frame[0:4], uint32(len(frame)-frameHdrLen))
	binary.BigEndian.PutUint32(frame[4:8], crc32.ChecksumIEEE(frame[frameHdrLen:]))
	return dst, nil
}

// frameLen returns the size of the frame AppendFrame produces for b.
func frameLen(b *fevent.Batch) int {
	n := frameHdrLen + frameSeqLen + b.EncodedLen()
	if b.Trace.Valid() {
		n += trace.CtxWireLen
	}
	return n
}

// WriteFrame writes the frame AppendFrame produces for b to w in one
// Write.
func WriteFrame(w io.Writer, b *fevent.Batch) error {
	buf, err := AppendFrame(make([]byte, 0, frameLen(b)), b)
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// ReadFrame reads one length-prefixed batch from r into b, verifying the
// checksum and populating b.Seq.
func ReadFrame(r io.Reader, b *fevent.Batch) error {
	p, _, err := readFramePayload(r, nil)
	if err == nil {
		p.decodeInto(b)
	}
	return err
}

// Payload is a verified frame payload viewed in place: the unit the
// collector moves from the socket and the WAL into the store, with no
// decoded form in between. Records aliases the payload it was taken from
// and holds n × fevent.RecordLen bytes, each a valid record in the image
// AppendRecord produces (see fevent.SplitBatch).
type Payload struct {
	SwitchID  uint16
	Timestamp sim.Time
	Seq       uint64
	Trace     trace.Context
	Records   []byte
}

// Events returns how many records the payload carries.
func (p *Payload) Events() int { return len(p.Records) / fevent.RecordLen }

func (p *Payload) decodeInto(b *fevent.Batch) {
	b.Seq, b.Trace = p.Seq, p.Trace
	b.DecodeRecords(p.SwitchID, p.Timestamp, p.Records)
}

// readFramePayload reads and verifies one frame, returning its view and
// the payload bytes (seq + batch body) the view aliases — exactly what the
// durable server appends to its write-ahead log, so the log stores what
// the wire carried, undefined detail bytes cleared, and recovery reuses
// ViewPayload. The frame is read into scratch, regrown when it does not
// fit — first the header, whose two fields are taken out before the
// payload overwrites it: a caller that passes the returned slice back in
// reads every frame of a connection into one buffer, and must be done
// with a payload before reading the next.
func readFramePayload(r io.Reader, scratch []byte) (Payload, []byte, error) {
	if cap(scratch) < frameHdrLen {
		scratch = make([]byte, frameHdrLen)
	}
	hdr := scratch[:frameHdrLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return Payload{}, nil, err
	}
	n, sum := binary.BigEndian.Uint32(hdr[0:4]), binary.BigEndian.Uint32(hdr[4:8])
	if n < frameSeqLen {
		return Payload{}, nil, ErrFrameTooShort
	}
	if n > MaxFrame {
		return Payload{}, nil, fmt.Errorf("collector: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(scratch)) < n {
		scratch = make([]byte, n)
	}
	payload := scratch[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return Payload{}, nil, err
	}
	if crc32.ChecksumIEEE(payload) != sum {
		return Payload{}, nil, ErrFrameCRC
	}
	p, err := ViewPayload(payload)
	if err != nil {
		return Payload{}, nil, err
	}
	return p, payload, nil
}

// ViewPayload validates a frame payload — 8 B delivery sequence, an
// optional v3 trace context flagged by the sequence word's bit 63, then
// one encoded batch and nothing after it — and returns its view, clearing
// in place the detail bytes a record's type does not define. It is the
// collector's only payload validator: the live wire path, WAL recovery
// (standalone and fabric) and DecodePayload all go through it, so
// mixed-version logs (pre- and post-trace frames interleaved) replay
// without misparsing.
func ViewPayload(payload []byte) (Payload, error) {
	if len(payload) < frameSeqLen {
		return Payload{}, ErrFrameTooShort
	}
	p := Payload{Seq: binary.BigEndian.Uint64(payload[:frameSeqLen])}
	body := payload[frameSeqLen:]
	if p.Seq&frameTraceBit != 0 {
		if len(body) < trace.CtxWireLen {
			return Payload{}, fmt.Errorf("collector: traced frame truncated before its %d-byte context", trace.CtxWireLen)
		}
		p.Trace = trace.CtxFromWire(body)
		if !p.Trace.Valid() {
			return Payload{}, errors.New("collector: traced frame carries a zero trace ID")
		}
		body = body[trace.CtxWireLen:]
		p.Seq &^= frameTraceBit
	}
	var rest []byte
	var err error
	if p.SwitchID, p.Timestamp, p.Records, rest, err = fevent.SplitBatch(body); err != nil {
		return Payload{}, err
	}
	if len(rest) != 0 {
		return Payload{}, fmt.Errorf("collector: %d trailing bytes in frame", len(rest))
	}
	return p, nil
}

// DecodePayload parses a frame payload into b: ViewPayload, then every
// record decoded into b.Events.
func DecodePayload(payload []byte, b *fevent.Batch) error {
	p, err := ViewPayload(payload)
	if err == nil {
		p.decodeInto(b)
	}
	return err
}

// writeAck writes one cumulative-ack frame: every data frame with
// sequence ≤ seq has been durably delivered to the Store.
func writeAck(w io.Writer, seq uint64) error {
	var buf [ackLen]byte
	binary.BigEndian.PutUint64(buf[0:8], seq)
	binary.BigEndian.PutUint32(buf[8:12], crc32.ChecksumIEEE(buf[0:8]))
	_, err := w.Write(buf[:])
	return err
}

// readAck reads and verifies one ack frame.
func readAck(r io.Reader) (uint64, error) {
	var buf [ackLen]byte
	if _, err := io.ReadFull(r, buf[:]); err != nil {
		return 0, err
	}
	if crc32.ChecksumIEEE(buf[0:8]) != binary.BigEndian.Uint32(buf[8:12]) {
		return 0, errAckCRC
	}
	return binary.BigEndian.Uint64(buf[0:8]), nil
}
