package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
)

// validFrame encodes one well-formed frame for mutation tests.
func validFrame(t *testing.T, seq uint64) []byte {
	t.Helper()
	b := batchOf(7, 42, fevent.Event{Type: fevent.TypeDrop, Flow: flowN(1),
		DropCode: fevent.DropNoRoute, SwitchID: 7, Timestamp: 42})
	b.Seq = seq
	var buf bytes.Buffer
	if err := WriteFrame(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestReadFrameMalformed(t *testing.T) {
	valid := validFrame(t, 3)

	corruptBody := append([]byte(nil), valid...)
	corruptBody[len(corruptBody)-1] ^= 0xff
	corruptSeq := append([]byte(nil), valid...)
	corruptSeq[frameHdrLen] ^= 0xff // inside the CRC-covered region

	// A frame whose length covers the batch plus stray trailing bytes,
	// re-checksummed so only the batch decoder can object.
	trailing := append(append([]byte(nil), valid...), 0xAA, 0xBB)
	binary.BigEndian.PutUint32(trailing[0:4], uint32(len(trailing)-frameHdrLen))
	binary.BigEndian.PutUint32(trailing[4:8], crc32.ChecksumIEEE(trailing[frameHdrLen:]))

	// Length says 9: seq present but batch header truncated.
	short := make([]byte, frameHdrLen+9)
	binary.BigEndian.PutUint32(short[0:4], 9)
	binary.BigEndian.PutUint32(short[4:8], crc32.ChecksumIEEE(short[frameHdrLen:]))

	// Batch header claims records the body does not contain.
	lying := validFrame(t, 4)
	// record count lives at bytes 10:12 of the batch body (after the seq).
	binary.BigEndian.PutUint16(lying[frameHdrLen+frameSeqLen+10:], 300)
	binary.BigEndian.PutUint32(lying[4:8], crc32.ChecksumIEEE(lying[frameHdrLen:]))

	// A well-formed body one record over the limit: only MaxBatchRecords
	// can object.
	over := &fevent.Batch{SwitchID: 7, Timestamp: 42, Events: make([]fevent.Event, fevent.MaxBatchRecords)}
	for i := range over.Events {
		over.Events[i] = fevent.Event{Type: fevent.TypePause, Flow: flowN(uint32(i))}
	}
	var overBuf bytes.Buffer
	if err := WriteFrame(&overBuf, over); err != nil {
		t.Fatal(err)
	}
	tooMany := append(append([]byte(nil), overBuf.Bytes()...), overBuf.Bytes()[overBuf.Len()-fevent.RecordLen:]...)
	binary.BigEndian.PutUint16(tooMany[frameHdrLen+frameSeqLen+10:], fevent.MaxBatchRecords+1)
	tooMany = rewriteFrame(tooMany)

	// Every record but the last is valid.
	badLast := append([]byte(nil), overBuf.Bytes()...)
	badLast[len(badLast)-fevent.RecordLen] = byte(fevent.TypeAggSpike) + 1
	badLast = rewriteFrame(badLast)
	zeroType := append([]byte(nil), valid...)
	zeroType[len(zeroType)-fevent.RecordLen] = 0
	zeroType = rewriteFrame(zeroType)

	tooShortLen := make([]byte, frameHdrLen)
	binary.BigEndian.PutUint32(tooShortLen[0:4], 4) // < frameSeqLen

	cases := []struct {
		name string
		data []byte
		want error // nil = any non-nil error accepted
	}{
		{"empty", nil, io.EOF},
		{"truncated header", valid[:3], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-5], io.ErrUnexpectedEOF},
		{"length below seq size", tooShortLen, ErrFrameTooShort},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, nil},
		{"corrupt body", corruptBody, ErrFrameCRC},
		{"corrupt seq", corruptSeq, ErrFrameCRC},
		{"trailing bytes", trailing, nil},
		{"truncated batch header", short, nil},
		{"record count beyond body", lying, nil},
		{"record count above MaxBatchRecords", tooMany, nil},
		{"invalid type in the last record", badLast, nil},
		{"type byte zero", zeroType, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b fevent.Batch
			err := ReadFrame(bytes.NewReader(tc.data), &b)
			if err == nil {
				t.Fatal("malformed frame accepted")
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
			// The server's reader is the same validator and says the same.
			if _, _, perr := readFramePayload(bytes.NewReader(tc.data), nil); perr == nil || perr.Error() != err.Error() {
				t.Fatalf("readFramePayload err = %v, ReadFrame err = %v", perr, err)
			}
		})
	}
	// The two limit cases sit exactly on their limits.
	var b fevent.Batch
	if err := ReadFrame(bytes.NewReader(overBuf.Bytes()), &b); err != nil || len(b.Events) != fevent.MaxBatchRecords {
		t.Fatalf("a frame of MaxBatchRecords records: %d events, %v", len(b.Events), err)
	}
}

// TestServerRejectsFrameWithInvalidRecord pins the wire path end to end:
// a checksummed frame whose last record has no valid type is a frame
// error — nothing of it is logged, stored or acked, and the connection
// is dropped.
func TestServerRejectsFrameWithInvalidRecord(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	store := NewStore()
	srv := NewServerOn(store, mustListen(t), ServerConfig{WAL: w})
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	good := validFrame(t, 1)
	two := &fevent.Batch{SwitchID: 7, Timestamp: 43, Seq: 2, Events: []fevent.Event{
		{Type: fevent.TypePause, Flow: flowN(1)}, {Type: fevent.TypePause, Flow: flowN(2)}}}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, two); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[len(bad)-fevent.RecordLen] = 0xee
	if _, err := conn.Write(append(good, rewriteFrame(bad)...)); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if seq, err := readAck(conn); err != nil || seq != 1 {
		t.Fatalf("ack for the valid frame = %d, %v", seq, err)
	}
	if _, err := readAck(conn); err == nil {
		t.Fatal("the invalid frame was acked")
	}
	srv.Drain(time.Second)
	if st := srv.Stats(); st.FrameErrors != 1 || st.Frames != 1 {
		t.Errorf("frames %d, frame errors %d, want 1 and 1", st.Frames, st.FrameErrors)
	}
	if store.Len() != 1 || store.SeenBatch(7, 2) || w.LastSerial() != 1 {
		t.Errorf("store holds %d events, seen(7,2)=%v, WAL serial %d: the rejected frame left a mark", store.Len(), store.SeenBatch(7, 2), w.LastSerial())
	}
}

func TestFrameRoundTripSeq(t *testing.T) {
	data := validFrame(t, 987654321)
	var got fevent.Batch
	if err := ReadFrame(bytes.NewReader(data), &got); err != nil {
		t.Fatal(err)
	}
	if got.Seq != 987654321 {
		t.Errorf("Seq = %d, want 987654321", got.Seq)
	}
	if got.SwitchID != 7 || len(got.Events) != 1 || got.Events[0].DropCode != fevent.DropNoRoute {
		t.Errorf("round trip = %+v", got)
	}
}

func TestAckRoundTripAndMalformed(t *testing.T) {
	var buf bytes.Buffer
	if err := writeAck(&buf, 123456); err != nil {
		t.Fatal(err)
	}
	seq, err := readAck(bytes.NewReader(buf.Bytes()))
	if err != nil || seq != 123456 {
		t.Fatalf("readAck = %d, %v", seq, err)
	}
	// Truncated.
	if _, err := readAck(bytes.NewReader(buf.Bytes()[:5])); err == nil {
		t.Error("truncated ack accepted")
	}
	// Corrupted: a flipped sequence byte must fail the CRC, or a huge
	// bogus ack would silently discard unacked batches.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[0] ^= 0xff
	if _, err := readAck(bytes.NewReader(bad)); !errors.Is(err, errAckCRC) {
		t.Errorf("corrupt ack err = %v, want %v", err, errAckCRC)
	}
}

func TestReadFrameRejectsEmptyReader(t *testing.T) {
	var b fevent.Batch
	if err := ReadFrame(strings.NewReader(""), &b); err == nil {
		t.Error("empty input accepted")
	}
}
