package fevent

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"netseer/internal/pkt"
	"netseer/internal/sim"
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
		t.Errorf("DecodeBatch changed Seq: %d", dec.Seq)
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

// TestDetailIsTheRecordDetail: Detail is the record's detail bytes, the
// bytes a type does not define are zero, and SetDetail sets the type's
// fields back and zeroes every other detail field.
func TestDetailIsTheRecordDetail(t *testing.T) {
	for typ := 0; typ <= numTypes+1; typ++ {
		e := Event{Type: Type(typ), IngressPort: 0x11, EgressPort: 0x22, Queue: 0x33,
			QueueLatencyUs: 0x4455, DropCode: 0x66, ACLRule: 0x77, Window: 0x8899, SketchErr: 0xaabb}
		d := e.Detail()
		if rec := e.AppendRecord(nil); binary.BigEndian.Uint32(rec[RecordTailOff:]) != d {
			t.Fatalf("type %d: Detail %08x, record detail %x", typ, d, rec[RecordTailOff:][:4])
		}
		if !Type(typ).Valid() && d != 0 {
			t.Fatalf("type %d: Detail %08x of no type", typ, d)
		}
		g := e
		g.SetDetail(d)
		want := Event{Type: e.Type}
		if want.Type.Valid() {
			if err := want.DecodeRecord(e.AppendRecord(nil)); err != nil {
				t.Fatal(err)
			}
		}
		if g != want {
			t.Fatalf("type %d: SetDetail(%08x) left %+v, want %+v", typ, d, g, want)
		}
	}
}

// TestCheckImageAndDecodeBatches: an image of whole batches checks to its
// record count and decodes, batch by batch, to its events; a truncated
// one is refused by both, and the empty image is empty.
func TestCheckImageAndDecodeBatches(t *testing.T) {
	var img []byte
	var evs []Event
	for k, n := range []int{3, 1, MaxBatchRecords} {
		b := Batch{SwitchID: uint16(1 + k), Timestamp: sim.Time(10 + k)}
		for i := 0; i < n; i++ {
			b.Events = append(b.Events, Event{Type: TypePause, Flow: sampleFlow(), EgressPort: uint8(i), SwitchID: b.SwitchID, Timestamp: b.Timestamp})
		}
		var err error
		if img, err = b.AppendTo(img); err != nil {
			t.Fatal(err)
		}
		evs = append(evs, b.Events...)
	}
	if n, err := CheckImage(img); n != len(evs) || err != nil {
		t.Fatalf("CheckImage: %d records, %v; want %d", n, err, len(evs))
	}
	decode := func(img []byte) (got []Event, err error) {
		var b Batch
		for len(img) > 0 && err == nil {
			img, err = DecodeBatch(img, &b)
			got = append(got, b.Events...)
		}
		return got, err
	}
	if got, err := decode(img); err != nil || !slices.Equal(got, evs) {
		t.Fatalf("the image decodes to %d events (%v), want %d", len(got), err, len(evs))
	}
	if _, err := decode(img[:len(img)-1]); err == nil {
		t.Fatal("a truncated image decoded")
	}
	if _, err := CheckImage(img[:len(img)-1]); err == nil {
		t.Fatal("a truncated image checked")
	}
	if n, err := CheckImage(nil); n != 0 || err != nil {
		t.Fatalf("the empty image: %d, %v", n, err)
	}
	if got, err := decode(nil); got != nil || err != nil {
		t.Fatalf("the empty image: %v, %v", got, err)
	}
}

// TestIdentityOrderIsTheMergeOrder: for stamps across the whole int64
// range, identities compare as (Timestamp, SwitchID, record) with the
// hash taken as the flow key's CRC, and Event gives that event back.
func TestIdentityOrderIsTheMergeOrder(t *testing.T) {
	stamps := []sim.Time{math.MinInt64, -1 << 40, -1, 0, 1, 1 << 40, math.MaxInt64 - 1, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	draw := func() (Event, Identity) {
		f := pkt.FlowKey{SrcIP: uint32(rng.Intn(3)), SrcPort: uint16(rng.Intn(3)), Proto: pkt.ProtoUDP}
		e := Event{Type: Types[rng.Intn(len(Types))], Flow: f, Hash: f.Hash(), Count: uint16(rng.Intn(2)),
			SwitchID: uint16(rng.Intn(3)), Timestamp: stamps[rng.Intn(len(stamps))]}
		e.SetDetail(rng.Uint32() & 0x01010101)
		rec := e.AppendRecord(nil)
		binary.BigEndian.PutUint32(rec[RecordHashOff:], rng.Uint32()) // not the CRC: the identity takes the CRC
		return e, IdentityOf(e.SwitchID, e.Timestamp, rec)
	}
	for i := 0; i < 5000; i++ {
		a, ida := draw()
		b, idb := draw()
		want := cmp.Or(cmp.Compare(a.Timestamp, b.Timestamp), cmp.Compare(a.SwitchID, b.SwitchID),
			bytes.Compare(a.AppendRecord(nil), b.AppendRecord(nil)))
		if got := ida.Compare(&idb); got != want || bytes.Compare(ida[:], idb[:]) != want {
			t.Fatalf("%v vs %v: Compare %d, bytes %d, want %d", &a, &b, got, bytes.Compare(ida[:], idb[:]), want)
		}
		if got := ida.Event(); got != a {
			t.Fatalf("Event() = %+v, want %+v", got, a)
		}
		if twin := IdentityOf(a.SwitchID, a.Timestamp, a.AppendRecord(nil)); twin != ida || twin.Compare(&ida) != 0 {
			t.Fatalf("%v: the record's hash changed its identity", &a)
		}
	}
}
