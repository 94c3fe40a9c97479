package collector

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
)

// validFrame encodes one well-formed untraced frame for mutation tests.
func validFrame(t *testing.T, seq uint64) []byte { return tracedFrame(t, seq, trace.Context{}) }

func TestReadFrameMalformed(t *testing.T) {
	valid := validFrame(t, 3)
	const batchOff = wal.RecordHdrLen + payloadHdrLen // where the batch body starts in a frame

	corruptBody := append([]byte(nil), valid...)
	corruptBody[len(corruptBody)-1] ^= 0xff
	corruptSeq := append([]byte(nil), valid...)
	corruptSeq[wal.RecordHdrLen] ^= 0xff // inside the CRC-covered region

	// A frame whose length covers the batch plus stray trailing bytes,
	// re-checksummed so only the batch decoder can object.
	trailing := rewriteFrame(append(append([]byte(nil), valid...), 0xAA, 0xBB))

	// Sequence and context present but batch header truncated.
	short := rewriteFrame(valid[:batchOff+9])

	// Batch header claims records the body does not contain.
	lying := validFrame(t, 4)
	// record count lives at bytes 10:12 of the batch body.
	binary.BigEndian.PutUint16(lying[batchOff+10:], 300)
	lying = rewriteFrame(lying)

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
	if overBuf.Len() != wal.RecordHdrLen+MaxFrame {
		t.Fatalf("a frame of MaxBatchRecords records is %d bytes, want the header plus MaxFrame", overBuf.Len())
	}
	tooMany := append(append([]byte(nil), overBuf.Bytes()...), overBuf.Bytes()[overBuf.Len()-fevent.RecordLen:]...)
	binary.BigEndian.PutUint16(tooMany[batchOff+10:], fevent.MaxBatchRecords+1)
	tooMany = rewriteFrame(tooMany)
	countOver := append([]byte(nil), valid...)
	binary.BigEndian.PutUint16(countOver[batchOff+10:], fevent.MaxBatchRecords+1)
	countOver = rewriteFrame(countOver)

	// Every record but the last is valid.
	badLast := append([]byte(nil), overBuf.Bytes()...)
	badLast[len(badLast)-fevent.RecordLen] = byte(fevent.TypeAggSpike) + 1
	badLast = rewriteFrame(badLast)
	zeroType := append([]byte(nil), valid...)
	zeroType[len(zeroType)-fevent.RecordLen] = 0
	zeroType = rewriteFrame(zeroType)

	// A whole record too short to hold even the sequence.
	tooShortLen := wal.AppendRecord(nil, make([]byte, 4))

	cases := []struct {
		name string
		data []byte
		want error // nil = any non-nil error accepted
	}{
		{"empty", nil, io.EOF},
		{"truncated header", valid[:3], io.ErrUnexpectedEOF},
		{"truncated payload", valid[:len(valid)-5], io.ErrUnexpectedEOF},
		{"payload missing after its header", valid[:wal.RecordHdrLen], wal.ErrRecordTorn},
		{"length below seq size", tooShortLen, ErrFrameTooShort},
		{"oversized length", []byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}, wal.ErrRecordTooLarge},
		{"length one over MaxFrame", tooMany, wal.ErrRecordTooLarge},
		{"corrupt body", corruptBody, wal.ErrRecordCRC},
		{"corrupt seq", corruptSeq, wal.ErrRecordCRC},
		{"trailing bytes", trailing, nil},
		{"truncated batch header", short, nil},
		{"record count beyond body", lying, nil},
		{"record count above MaxBatchRecords", countOver, nil},
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
	// The limit cases sit exactly on their limits.
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
	srv := startServer(t, store, ServerConfig{WAL: w})
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

// TestTheLogIsTheWire: a standalone durable server logs every frame as
// the record it arrived as, so its segments hold the client's frames —
// traced and untraced alike — byte for byte, concatenated.
func TestTheLogIsTheWire(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv := startServer(t, NewStore(), ServerConfig{WAL: w})
	conn, err := newRawConn(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for seq := uint64(1); seq <= 6; seq++ {
		b := seqBatch(3, seq)
		if seq%2 == 0 {
			b.Trace = trace.Context{TraceID: seq, Parent: 9}
		}
		if wire, err = AppendFrame(wire, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	readAcksThrough(t, conn, 6)
	conn.Close()
	srv.Close()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.seg")) // sorted: name order is log order
	if err != nil {
		t.Fatal(err)
	}
	var logged []byte
	for _, seg := range segs {
		b, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		logged = append(logged, b...)
	}
	if !bytes.Equal(logged, wire) {
		t.Fatalf("the log holds %d bytes that are not the %d bytes of frames the client wrote:\n log  %x\n wire %x", len(logged), len(wire), logged, wire)
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
	if want := wal.AppendRecord(nil, binary.BigEndian.AppendUint64(nil, 123456)); !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("ack = %x, want the 16 B record of its sequence %x", buf.Bytes(), want)
	}
	seq, err := readAck(bytes.NewReader(buf.Bytes()))
	if err != nil || seq != 123456 {
		t.Fatalf("readAck = %d, %v", seq, err)
	}
	// Truncated.
	if _, err := readAck(bytes.NewReader(buf.Bytes()[:5])); !errors.Is(err, wal.ErrRecordTorn) {
		t.Errorf("truncated ack err = %v, want %v", err, wal.ErrRecordTorn)
	}
	// Corrupted: a flipped sequence byte must fail the CRC, or a huge
	// bogus ack would silently discard unacked batches.
	bad := append([]byte(nil), buf.Bytes()...)
	bad[wal.RecordHdrLen] ^= 0xff
	if _, err := readAck(bytes.NewReader(bad)); !errors.Is(err, wal.ErrRecordCRC) {
		t.Errorf("corrupt ack err = %v, want %v", err, wal.ErrRecordCRC)
	}
	// A record of any other length is no ack.
	for _, n := range []int{4, 9} {
		if _, err := readAck(bytes.NewReader(wal.AppendRecord(nil, make([]byte, n)))); err == nil {
			t.Errorf("a %d-byte ack accepted", n)
		}
	}
}

// TestFrameLengthIsBoundedBeforeItsPayload: a length word commits the
// reader to no more than MaxFrame bytes — the largest valid payload (a
// longer one is TestReadFrameMalformed's) — and a frame cut after its
// header is a tear, which the server counts, not a clean close.
func TestFrameLengthIsBoundedBeforeItsPayload(t *testing.T) {
	header := wal.AppendRecord(nil, make([]byte, MaxFrame))[:wal.RecordHdrLen] // its payload never comes
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, _, err := readFramePayload(bytes.NewReader(header), nil); err == io.EOF || !errors.Is(err, wal.ErrRecordTorn) {
			t.Fatalf("a header then EOF: err = %v, want a torn record", err)
		}
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 16<<10 {
		t.Fatalf("a header declaring MaxFrame allocates %d B before its payload arrives", per)
	}

	srv := startServer(t, NewStore(), ServerConfig{})
	defer srv.Close()
	conn, err := newRawConn(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(header); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitFor(t, func() bool { return srv.Stats().FrameErrors == 1 })
}

// TestClientDropsBatchNoFrameCanCarry: a batch over MaxBatchRecords is
// dropped and counted at Deliver; it never takes a sequence, so it cannot
// wedge the channel behind it.
func TestClientDropsBatchNoFrameCanCarry(t *testing.T) {
	store := NewStore()
	srv := startServer(t, store, ServerConfig{})
	defer srv.Close()
	cl := NewClientConfig(srv.Addr(), ClientConfig{FlushTimeout: 2 * time.Second})
	defer cl.Close()
	cl.Deliver(&fevent.Batch{SwitchID: 7, Events: make([]fevent.Event, fevent.MaxBatchRecords+1)})
	cl.Deliver(batchOf(7, 1, fevent.Event{Type: fevent.TypePause, Flow: flowN(1)}))
	if err := cl.Flush(); err != nil {
		t.Fatalf("flush behind an oversize batch: %v (stats %+v)", err, cl.Stats())
	}
	if st := cl.Stats(); store.Len() != 1 || st.DroppedBatches != 1 || st.Connects > 2 {
		t.Fatalf("store holds %d events; client dropped %d batches over %d connects, want 1, 1 and at most 2", store.Len(), st.DroppedBatches, st.Connects)
	}
}

func TestReadFrameRejectsEmptyReader(t *testing.T) {
	var b fevent.Batch
	if err := ReadFrame(strings.NewReader(""), &b); err == nil {
		t.Error("empty input accepted")
	}
}

// TestRecordSeqIsNoFrame: sequence 2⁶⁴−1 is reserved for fabric records.
// AppendFrame will not write it, the frame reader refuses it, and
// recovery hands a logged payload that carries it to the fabric's
// handler, in log order between the frames around it — a standalone
// log refuses it.
func TestRecordSeqIsNoFrame(t *testing.T) {
	if out, err := AppendFrame([]byte{1}, seqBatch(3, RecordSeq)); !errors.Is(err, ErrRecordSeq) || len(out) != 1 {
		t.Fatalf("AppendFrame of the reserved sequence: %d B, %v", len(out), err)
	}
	reserved := validFrame(t, 5)
	binary.BigEndian.PutUint64(reserved[wal.RecordHdrLen:], RecordSeq)
	reserved = rewriteFrame(reserved)
	var b fevent.Batch
	if err := ReadFrame(bytes.NewReader(reserved), &b); !errors.Is(err, ErrRecordSeq) {
		t.Fatalf("ReadFrame of a frame carrying the reserved sequence: %v", err)
	}

	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	record := append(binary.BigEndian.AppendUint64(nil, RecordSeq), 'X', 1, 2)
	for _, p := range [][]byte{validFrame(t, 1), record, validFrame(t, 2)} {
		if p[0] != record[0] {
			p = p[wal.RecordHdrLen:]
		}
		if _, err := w.Append(p, false); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, _, err := RecoverStore(w); !errors.Is(err, ErrRecordSeq) {
		t.Fatalf("RecoverStore of a log holding a fabric record: %v", err)
	}
	var seen []int
	st, _, err := RecoverStore(w, func(s *Store, p []byte) error {
		if !bytes.Equal(p, record) {
			t.Errorf("the handler got %x, the log holds %x", p, record)
		}
		seen = append(seen, s.Len())
		return nil
	})
	if err != nil || st.Len() != 2 || len(seen) != 1 || seen[0] != 1 {
		t.Fatalf("RecoverStore with a handler: %v, %d events, handler saw stores of %v events", err, st.Len(), seen)
	}
	if _, _, err := RecoverStore(w, func(*Store, []byte) error { return io.ErrUnexpectedEOF }); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("a handler's error: %v", err)
	}
}
