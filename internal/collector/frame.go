package collector

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/sim"
)

// Wire framing for CPU→backend delivery (§3.6 "reliable TCP-based
// report"): the channel is at-least-once. Every data frame carries a
// client-lifetime sequence number and a CRC so the receiver can detect
// corruption and deduplicate replays; the server answers with cumulative
// acknowledgements. Both are records of the WAL's codec (wal/record.go),
// so a data frame is byte for byte the record a durable server logs:
//
//	data frame (client→server): [4 B length][4 B CRC-32][8 B seq][17 B trace ctx][body]
//	ack        (server→client): [4 B length = 8][4 B CRC-32][8 B cumulative seq]
//
// body is one encoded fevent.Batch; the trace context is all zero when the
// batch is untraced. Sequence numbers count up from a random per-Client
// starting point and never reset for the life of the Client, so a batch
// replayed over a fresh connection keeps its identity (and a restarted
// exporter cannot collide with its previous life) — the Store drops
// duplicates by (switch ID, sequence).

const (
	// frameSeqLen is the delivery sequence at the head of a frame payload.
	frameSeqLen = 8
	// payloadHdrLen is what a frame payload carries before its batch: the
	// sequence and the trace context.
	payloadHdrLen = frameSeqLen + trace.CtxWireLen
)

// RecordSeq is the one sequence no frame carries. A log record whose
// payload opens with it is not a frame but a fabric shard's bookkeeping
// record, [8 B 0xFF…FF][1 B tag][body] (DESIGN §11): ViewPayload refuses
// it and AppendFrame will not write it, so the two never mix. Client
// sequences start below 2⁶² and count up, so no client reaches it.
const RecordSeq = ^uint64(0)

// ErrRecordSeq reports a frame carrying RecordSeq.
var ErrRecordSeq = errors.New("collector: sequence 2⁶⁴−1 is reserved for fabric records")

// MaxFrame bounds a frame's length word: the payload of the largest valid
// batch. A longer frame is rejected before any of it is read or allocated.
const MaxFrame = payloadHdrLen + fevent.BatchHeaderLen + fevent.MaxBatchRecords*fevent.RecordLen

// ErrFrameTooShort reports a frame payload too short to hold its sequence
// and trace context.
var ErrFrameTooShort = errors.New("collector: frame shorter than its sequence and trace context")

// AppendFrame appends the frame for b — its delivery sequence, its trace
// context and the encoded batch, sealed as one record — to dst and returns
// the extended slice. With room for the frame in dst's spare capacity it
// does not allocate — the client encodes straight into its write buffer.
func AppendFrame(dst []byte, b *fevent.Batch) ([]byte, error) {
	if b.Seq == RecordSeq {
		return dst, ErrRecordSeq
	}
	var pre [wal.RecordHdrLen + payloadHdrLen]byte
	binary.BigEndian.PutUint64(pre[wal.RecordHdrLen:], b.Seq)
	if b.Trace.Valid() { // a context without a trace ID goes out all zero
		b.Trace.PutWire(pre[wal.RecordHdrLen+frameSeqLen:])
	}
	out, err := b.AppendTo(append(dst, pre[:]...))
	if err != nil {
		return dst, err
	}
	wal.SealRecord(out[len(dst):])
	return out, nil
}

// frameLen returns the size of the frame AppendFrame produces for b.
func frameLen(b *fevent.Batch) int { return wal.RecordHdrLen + payloadHdrLen + b.EncodedLen() }

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

// ReadFrame reads one frame from r into b, verifying the checksum and
// populating b.Seq and b.Trace.
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

// readFramePayload reads and verifies one frame into scratch (see
// wal.ReadRecord), returning its view and the payload bytes the view
// aliases — exactly what the durable server appends to its write-ahead
// log, so the log stores what the wire carried, undefined detail bytes
// cleared, and recovery reuses ViewPayload.
func readFramePayload(r io.Reader, scratch []byte) (Payload, []byte, error) {
	payload, err := wal.ReadRecord(r, MaxFrame, scratch)
	if err != nil {
		return Payload{}, nil, err
	}
	p, err := ViewPayload(payload)
	if err != nil {
		return Payload{}, nil, err
	}
	return p, payload, nil
}

// ViewPayload validates a frame payload — 8 B delivery sequence other
// than RecordSeq, 17 B trace context, then one encoded batch and nothing
// after it — and returns its view, clearing in place the detail bytes a
// record's type does not define. A context without a trace ID must be
// all zero. It is the collector's only payload validator: the live wire
// path, WAL recovery and DecodePayload all go through it.
func ViewPayload(payload []byte) (Payload, error) {
	if len(payload) >= frameSeqLen && binary.BigEndian.Uint64(payload) == RecordSeq {
		return Payload{}, ErrRecordSeq
	}
	if len(payload) < payloadHdrLen {
		return Payload{}, ErrFrameTooShort
	}
	p := Payload{
		Seq:   binary.BigEndian.Uint64(payload),
		Trace: trace.CtxFromWire(payload[frameSeqLen:]),
	}
	if !p.Trace.Valid() && p.Trace != (trace.Context{}) {
		return Payload{}, errors.New("collector: frame context has no trace ID but is not all zero")
	}
	var rest []byte
	var err error
	if p.SwitchID, p.Timestamp, p.Records, rest, err = fevent.SplitBatch(payload[payloadHdrLen:]); err != nil {
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

// writeAck writes one cumulative ack: every data frame with sequence
// ≤ seq has been durably delivered to the Store.
func writeAck(w io.Writer, seq uint64) error {
	var rec [wal.RecordHdrLen + frameSeqLen]byte
	binary.BigEndian.PutUint64(rec[wal.RecordHdrLen:], seq)
	wal.SealRecord(rec[:])
	_, err := w.Write(rec[:])
	return err
}

// readAck reads and verifies one ack.
func readAck(r io.Reader) (uint64, error) {
	p, err := wal.ReadRecord(r, frameSeqLen, nil)
	if err != nil {
		return 0, err
	}
	if len(p) != frameSeqLen {
		return 0, fmt.Errorf("collector: %d-byte ack, want %d", len(p), frameSeqLen)
	}
	return binary.BigEndian.Uint64(p), nil
}
