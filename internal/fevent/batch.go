package fevent

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"

	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// BatchHeaderLen is the encoded size of a batch header: switch ID (2 B),
// timestamp (8 B, nanoseconds), record count (2 B).
const BatchHeaderLen = 2 + 8 + 2

// DefaultBatchSize is the paper's recommended number of events per batch
// packet (§3.5).
const DefaultBatchSize = 50

// MaxBatchRecords bounds a single batch to what fits in a jumbo-ish export
// frame; the encoder enforces it.
const MaxBatchRecords = 370

// Batch is a group of events reported together by one switch.
type Batch struct {
	SwitchID  uint16
	Timestamp sim.Time
	Events    []Event

	// Seq is the delivery-layer sequence number stamped by the reliable
	// collector client: it counts up from a random base below 2⁶² for the
	// client's lifetime; 0 means unsequenced (in-process delivery), and
	// 2⁶⁴−1 is reserved for the records a fabric shard logs beside its
	// frames. It travels in the frame header of the CPU→collector channel,
	// not in the batch body, so the CEBP encoding below
	// (AppendTo/DecodeBatch) deliberately ignores it.
	Seq uint64

	// Trace is the distributed-tracing context assigned at the CEBP
	// batcher and carried across every hop the batch takes. Like Seq it
	// travels in the frame header, not in the batch body, so
	// AppendTo/DecodeBatch ignore it too; the zero Context marks an
	// untraced batch, and every frame carries the context, zero or not.
	Trace trace.Context
}

// EncodedLen returns the on-wire size of the batch.
func (b *Batch) EncodedLen() int { return BatchHeaderLen + RecordLen*len(b.Events) }

// AppendTo appends the encoded batch to buf. It returns an error if the
// batch exceeds MaxBatchRecords.
func (b *Batch) AppendTo(buf []byte) ([]byte, error) {
	if len(b.Events) > MaxBatchRecords {
		return nil, fmt.Errorf("fevent: batch of %d records exceeds max %d", len(b.Events), MaxBatchRecords)
	}
	buf = AppendBatchHeader(buf, b.SwitchID, b.Timestamp, len(b.Events))
	for i := range b.Events {
		buf = b.Events[i].AppendRecord(buf)
	}
	return buf, nil
}

// detailMask keeps, per type byte, the bits of a record's 4 B detail field
// that the type defines (Event.Detail); zero marks a byte that is no type.
var detailMask = func() (m [256]uint32) {
	for _, t := range Types {
		e := Event{Type: t}
		e.SetDetail(^uint32(0))
		m[t] = e.Detail()
	}
	return m
}()

// SplitBatch validates one encoded batch without decoding it and returns
// its header fields, its records — n × RecordLen bytes aliasing data — and
// the remainder of data past the batch. Detail bytes a record's type does
// not define are cleared in place, so every returned record is exactly the
// image AppendRecord produces for what DecodeRecord reads from it: a
// holder of the bytes and a holder of the decoded events keep the same
// thing.
func SplitBatch(data []byte) (sw uint16, ts sim.Time, recs, rest []byte, err error) {
	if len(data) < BatchHeaderLen {
		return 0, 0, nil, nil, fmt.Errorf("fevent: batch header truncated: %d bytes", len(data))
	}
	sw = binary.BigEndian.Uint16(data[0:2])
	ts = sim.Time(binary.BigEndian.Uint64(data[2:10]))
	n := int(binary.BigEndian.Uint16(data[10:12]))
	if n > MaxBatchRecords {
		return 0, 0, nil, nil, fmt.Errorf("fevent: batch claims %d records, max %d", n, MaxBatchRecords)
	}
	data = data[BatchHeaderLen:]
	if len(data) < n*RecordLen {
		return 0, 0, nil, nil, fmt.Errorf("fevent: batch body truncated: want %d records, have %d bytes", n, len(data))
	}
	recs, rest = data[:n*RecordLen], data[n*RecordLen:]
	for r := recs; len(r) > 0; r = r[RecordLen:] {
		mask := detailMask[r[0]]
		if mask == 0 {
			return 0, 0, nil, nil, fmt.Errorf("fevent: invalid event type %d", r[0])
		}
		if d := binary.BigEndian.Uint32(r[RecordTailOff:]); d&^mask != 0 {
			binary.BigEndian.PutUint32(r[RecordTailOff:], d&mask)
		}
	}
	return sw, ts, recs, rest, nil
}

// DecodeRecords fills b with the header fields and records SplitBatch
// returned, stamping every event with the batch's switch ID and timestamp.
func (b *Batch) DecodeRecords(sw uint16, ts sim.Time, recs []byte) {
	b.SwitchID, b.Timestamp = sw, ts
	n := len(recs) / RecordLen
	if cap(b.Events) < n {
		b.Events = make([]Event, n)
	} else {
		b.Events = b.Events[:n]
	}
	for i := range b.Events {
		_ = b.Events[i].DecodeRecord(recs[i*RecordLen:]) // SplitBatch checked length and type
		b.Events[i].SwitchID, b.Events[i].Timestamp = sw, ts
	}
}

// DecodeBatch parses one encoded batch from data — SplitBatch, then every
// record decoded into b.Events. It returns the remainder of data past the
// batch.
func DecodeBatch(data []byte, b *Batch) ([]byte, error) {
	sw, ts, recs, rest, err := SplitBatch(data)
	if err != nil {
		return nil, err
	}
	b.DecodeRecords(sw, ts, recs)
	return rest, nil
}

// AppendBatchHeader appends the header of a batch of n records reported
// by switch sw at ts: the bytes AppendTo writes before the records.
func AppendBatchHeader(dst []byte, sw uint16, ts sim.Time, n int) []byte {
	dst = binary.BigEndian.AppendUint16(dst, sw)
	dst = binary.BigEndian.AppendUint64(dst, uint64(ts))
	return binary.BigEndian.AppendUint16(dst, uint16(n))
}

// CheckImage validates img as whole batches and nothing else, SplitBatch
// by SplitBatch (so undefined detail bytes are cleared in place), and
// returns how many records it holds.
func CheckImage(img []byte) (int, error) {
	n := 0
	for len(img) > 0 {
		_, _, recs, rest, err := SplitBatch(img)
		if err != nil {
			return 0, err
		}
		n, img = n+len(recs)/RecordLen, rest
	}
	return n, nil
}

// Identity is what makes two stored copies one event, and what the epoch
// fence and the fabric merge key on: the switch, the stamp and the 24 B
// record with its hash taken as its flow key's CRC, as a store holds it.
// Its bytes are the stamp with the sign bit flipped (8 B), the switch
// (2 B) and the record, so byte order is (Timestamp, SwitchID, record).
type Identity [8 + 2 + RecordLen]byte

// IdentityOf returns the identity of the event switch sw reported at ts in rec.
func IdentityOf(sw uint16, ts sim.Time, rec []byte) (id Identity) {
	binary.BigEndian.PutUint64(id[:], uint64(ts)^1<<63)
	binary.BigEndian.PutUint16(id[8:], sw)
	copy(id[10:], rec[:RecordLen])
	binary.BigEndian.PutUint32(id[10+RecordHashOff:], pkt.WireHash((*[pkt.FlowKeyLen]byte)(id[10+RecordFlowOff:])))
	return id
}

// Compare orders id and o by their bytes, eight at a time: -1, 0 or +1.
func (id *Identity) Compare(o *Identity) int {
	for i := 0; i < 32; i += 8 {
		if x, y := binary.BigEndian.Uint64(id[i:]), binary.BigEndian.Uint64(o[i:]); x != y {
			return cmp.Compare(x, y)
		}
	}
	return bytes.Compare(id[32:], o[32:])
}

// Event decodes the event id names, whose type SplitBatch or a store checked.
func (id *Identity) Event() (e Event) {
	_ = e.DecodeRecord(id[10:])
	e.SwitchID = binary.BigEndian.Uint16(id[8:])
	e.Timestamp = sim.Time(binary.BigEndian.Uint64(id[:]) ^ 1<<63)
	return e
}
