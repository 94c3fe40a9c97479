package fabric

import (
	"bytes"
	"cmp"
	"math/rand"
	"slices"
	"testing"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func testEvents() []fevent.Event {
	mk := func(i int) pkt.FlowKey {
		return pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, byte(i)), DstIP: pkt.IP(10, 1, 0, 1),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6}
	}
	return []fevent.Event{
		{Type: fevent.TypeDrop, Flow: mk(1), DropCode: fevent.DropNoRoute,
			SwitchID: 3, Timestamp: sim.Time(100), IngressPort: 1, EgressPort: 2, Count: 4},
		{Type: fevent.TypeCongestion, Flow: mk(2), SwitchID: 5, Timestamp: sim.Time(200),
			EgressPort: 7, Queue: 1, QueueLatencyUs: 900, Count: 1},
		{Type: fevent.TypePathChange, Flow: mk(3), SwitchID: 3, Timestamp: sim.Time(300),
			IngressPort: 2, EgressPort: 9},
	}
}

// TestEventBlobRoundtrip: a transfer's events travel as batch images,
// one batch a run of switch and stamp, and come back equal.
func TestEventBlobRoundtrip(t *testing.T) {
	evs := testEvents()
	blob := fevent.AppendBatches(nil, evs)
	if want := len(evs) * (fevent.BatchHeaderLen + fevent.RecordLen); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d", len(blob), want)
	}
	got, err := fevent.DecodeBatches(nil, blob)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(evs) {
		t.Fatalf("decoded %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d changed across roundtrip:\n%+v\n%+v", i, evs[i], got[i])
		}
	}
	if _, err := fevent.DecodeBatches(nil, blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated event blob decoded without error")
	}
}

func TestSeenSetRoundtrip(t *testing.T) {
	ids := []collector.BatchID{{Switch: 1, Seq: 7}, {Switch: 65535, Seq: 1 << 60}, {Switch: 0, Seq: 0}}
	got, err := decodeSeenSet(encodeSeenSet(ids))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(got) != len(ids) {
		t.Fatalf("decoded %d ids, want %d", len(got), len(ids))
	}
	for i := range ids {
		if got[i] != ids[i] {
			t.Fatalf("id %d: got %+v want %+v", i, got[i], ids[i])
		}
	}
	if _, err := decodeSeenSet([]byte{1, 2, 3}); err == nil {
		t.Fatal("ragged seen set decoded without error")
	}
}

// TestSeenSetExportIsDeterministic pins a transfer's dedup image: two
// exports of one store encode to the same bytes, in (switch, seq) order,
// however its batches arrived; and a blob in another order, as transfer
// records logged from a walk of a hash map are, still decodes and merges
// to the same set.
func TestSeenSetExportIsDeterministic(t *testing.T) {
	st := collector.NewStore()
	r := rand.New(rand.NewSource(9))
	bases := [2]uint64{r.Uint64() >> 2, r.Uint64() >> 2}
	const n = 4000
	for _, i := range r.Perm(n) {
		st.Deliver(&fevent.Batch{SwitchID: uint16(1 + i%5), Timestamp: sim.Time(i), Seq: bases[i%2] + uint64(i)})
	}
	blob := encodeSeenSet(st.ExportSeen())
	if again := encodeSeenSet(st.ExportSeen()); !bytes.Equal(blob, again) {
		t.Fatal("two exports of one store encode to different bytes")
	}
	ids, err := decodeSeenSet(blob)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(ids); i++ {
		if cmp.Or(cmp.Compare(ids[i-1].Switch, ids[i].Switch), cmp.Compare(ids[i-1].Seq, ids[i].Seq)) >= 0 {
			t.Fatalf("export key %d %+v does not follow %+v", i, ids[i], ids[i-1])
		}
	}
	if len(ids) != n {
		t.Fatalf("export holds %d keys, want %d", len(ids), n)
	}
	shuffled := slices.Clone(ids)
	r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	back, err := decodeSeenSet(encodeSeenSet(shuffled))
	if err != nil {
		t.Fatal(err)
	}
	dst := collector.NewStore()
	dst.MergeSeen(back)
	if !bytes.Equal(encodeSeenSet(dst.ExportSeen()), blob) {
		t.Fatal("an unsorted blob merges to a different set")
	}
}

func TestRecordFraming(t *testing.T) {
	if rec := encodeBatchRecord([]byte("payload")); rec[0] != recBatch || string(rec[1:]) != "payload" {
		t.Fatalf("batch record framing wrong: %q", rec)
	}
	m := encodeMark(0x20001, 0xF0)
	if m[0] != recMark || beUint64(m[1:9]) != 0x20001 || beUint64(m[9:17]) != 0xF0 {
		t.Fatalf("mark framing wrong: %x", m)
	}
	c := encodeRB(recCommit, 42)
	if c[0] != recCommit || beUint64(c[1:9]) != 42 {
		t.Fatalf("commit framing wrong: %x", c)
	}
	ch := encodeImportChunk(42, chunkSeen, []byte{9, 9})
	if ch[0] != recImport || beUint64(ch[1:9]) != 42 || ch[9] != chunkSeen || len(ch) != 12 {
		t.Fatalf("chunk framing wrong: %x", ch)
	}
}

func TestSlotMaskHas(t *testing.T) {
	var mask uint64 = 1<<0 | 1<<13 | 1<<63
	for slot := 0; slot < NSlots; slot++ {
		want := slot == 0 || slot == 13 || slot == 63
		if slotMaskHas(mask, slot) != want {
			t.Fatalf("slot %d: has=%v want %v", slot, slotMaskHas(mask, slot), want)
		}
	}
}

// TestRecoverShardReplayDoesNotAllocate is the fabric's half of the
// recovery allocation pin (collector.TestRecoverReplayDoesNotAllocate):
// batch records go from the log into the store as bytes, so replaying
// 300 of them allocates for the store's growth, not once or more a record.
func TestRecoverShardReplayDoesNotAllocate(t *testing.T) {
	const records, frameHdrLen = 300, 8 // a frame's length and CRC words precede its payload
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= records; seq++ {
		b := &fevent.Batch{SwitchID: 3, Timestamp: sim.Time(seq), Seq: seq}
		for i := 0; i < fevent.DefaultBatchSize; i++ {
			e := testEvents()[i%3]
			e.SwitchID, e.Timestamp, e.Flow.SrcPort = b.SwitchID, b.Timestamp, uint16(i%40)
			b.Events = append(b.Events, e)
		}
		frame, err := collector.AppendFrame(nil, b)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(encodeBatchRecord(frame[frameHdrLen:]), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var st *collector.Store
	n := testing.AllocsPerRun(5, func() {
		if st, _, err = recoverShard(w); err != nil {
			t.Fatal(err)
		}
	})
	if st.Len() != records*fevent.DefaultBatchSize {
		t.Fatalf("recovered %d events, want %d", st.Len(), records*fevent.DefaultBatchSize)
	}
	if n >= records/4 {
		t.Fatalf("recovering %d batch records allocates %v times: that grows with the log, not with the store", records, n)
	}
}
