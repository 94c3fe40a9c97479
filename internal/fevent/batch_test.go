package fevent

import (
	"bytes"
	"testing"
)

// TestBatchSeqOutsideEncoding pins the layering contract: Seq belongs to
// the delivery channel's frame header, so the CEBP batch encoding must
// neither grow with it nor carry it.
func TestBatchSeqOutsideEncoding(t *testing.T) {
	b := &Batch{SwitchID: 3, Timestamp: 99, Seq: 12345,
		Events: []Event{{Type: TypeCongestion, SwitchID: 3, Timestamp: 99}}}
	plain := &Batch{SwitchID: 3, Timestamp: 99,
		Events: []Event{{Type: TypeCongestion, SwitchID: 3, Timestamp: 99}}}
	if b.EncodedLen() != plain.EncodedLen() {
		t.Fatalf("Seq changed EncodedLen: %d vs %d", b.EncodedLen(), plain.EncodedLen())
	}
	enc, err := b.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	encPlain, err := plain.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	if string(enc) != string(encPlain) {
		t.Error("Seq leaked into the batch body encoding")
	}
	var dec Batch
	dec.Seq = 777 // DecodeBatch must not invent or clear delivery state itself
	if _, err := DecodeBatch(enc, &dec); err != nil {
		t.Fatal(err)
	}
	if dec.SwitchID != 3 || len(dec.Events) != 1 {
		t.Fatalf("decode = %+v", dec)
	}
	if dec.Seq != 777 {
		t.Errorf("DecodeBatch touched Seq: %d", dec.Seq)
	}
}

// TestSplitBatchIsTheRecordImage pins the detail-byte masks against the
// two codecs they summarise: for every byte a record can start with and
// every bit set after it, SplitBatch accepts exactly the types
// DecodeRecord accepts and leaves exactly AppendRecord(DecodeRecord(rec)).
func TestSplitBatchIsTheRecordImage(t *testing.T) {
	hdr, _ := (&Batch{SwitchID: 9, Timestamp: 77}).AppendTo(nil)
	hdr[BatchHeaderLen-1] = 1 // one record follows
	for typ := 0; typ < 256; typ++ {
		rec := bytes.Repeat([]byte{0xff}, RecordLen)
		rec[0] = byte(typ)
		var e Event
		decodeErr := e.DecodeRecord(rec)
		data := append(append([]byte(nil), hdr...), rec...)
		sw, ts, recs, rest, err := SplitBatch(data)
		if (err == nil) != (decodeErr == nil) {
			t.Fatalf("type %d: SplitBatch says %v, DecodeRecord says %v", typ, err, decodeErr)
		}
		if err != nil {
			continue
		}
		if want := e.AppendRecord(nil); sw != 9 || ts != 77 || len(rest) != 0 || !bytes.Equal(recs, want) {
			t.Fatalf("type %d: SplitBatch left %x (switch %d, stamp %d, %d bytes over), AppendRecord(DecodeRecord) gives %x", typ, recs, sw, ts, len(rest), want)
		}
		var b Batch
		if _, err := DecodeBatch(data, &b); err != nil || len(b.Events) != 1 || b.Events[0].SwitchID != 9 || b.Events[0].Timestamp != 77 {
			t.Fatalf("type %d: DecodeBatch of the cleared batch: %+v, %v", typ, b, err)
		}
		e.SwitchID, e.Timestamp = 9, 77
		if b.Events[0] != e {
			t.Fatalf("type %d: DecodeBatch gives %+v, DecodeRecord %+v", typ, b.Events[0], e)
		}
	}
}
