package fabric

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func testEvents() []fevent.Event {
	mk := func(i int) pkt.FlowKey {
		return pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, byte(i)), DstIP: pkt.IP(10, 1, 0, 1),
			SrcPort: uint16(1000 + i), DstPort: 80, Proto: 6}
	}
	return []fevent.Event{
		{Type: fevent.TypeDrop, Flow: mk(1), Hash: mk(1).Hash(), DropCode: fevent.DropNoRoute,
			SwitchID: 3, Timestamp: sim.Time(100), IngressPort: 1, EgressPort: 2, Count: 4},
		{Type: fevent.TypeCongestion, Flow: mk(2), Hash: mk(2).Hash(), SwitchID: 5, Timestamp: sim.Time(200),
			EgressPort: 7, Queue: 1, QueueLatencyUs: 900, Count: 1},
		{Type: fevent.TypePathChange, Flow: mk(3), Hash: mk(3).Hash(), SwitchID: 3, Timestamp: sim.Time(300),
			IngressPort: 2, EgressPort: 9},
	}
}

// TestEventBlobRoundtrip: a transfer's events travel as the record image
// of the capture, one batch a run of switch and stamp, and come back
// equal at the destination; a capture holds exactly the masked slots.
func TestEventBlobRoundtrip(t *testing.T) {
	evs := testEvents()
	src := collector.NewStore()
	src.Deliver(&fevent.Batch{SwitchID: 3, Timestamp: 300, Events: evs})
	blob := captureSlots(src, ^uint64(0))
	if want := len(evs) * (fevent.BatchHeaderLen + fevent.RecordLen); len(blob) != want {
		t.Fatalf("blob is %d bytes, want %d", len(blob), want)
	}
	dst := collector.NewStore()
	if n, err := dst.ImportImage(blob); n != len(evs) || err != nil {
		t.Fatalf("import: %d events, %v", n, err)
	}
	got := dst.Query(collector.Filter{})
	if len(got) != len(evs) {
		t.Fatalf("imported %d events, want %d", len(got), len(evs))
	}
	for i := range evs {
		if got[i] != evs[i] {
			t.Fatalf("event %d changed across roundtrip:\n%+v\n%+v", i, evs[i], got[i])
		}
	}
	if _, err := fevent.CheckImage(blob[:len(blob)-1]); err == nil {
		t.Fatal("truncated event blob checked without error")
	}
}

// TestCaptureIsTheReferenceImage: for any mask, a capture is byte for
// byte the reference image of the events the mask selects — one batch per
// maximal run of switch and stamp, split at MaxBatchRecords — which is
// what a shard logged and shipped before captures were written from the
// store's records.
func TestCaptureIsTheReferenceImage(t *testing.T) {
	st := collector.NewStore()
	r := rand.New(rand.NewSource(4))
	for b := 0; b < 60; b++ {
		sw, ts := uint16(1+r.Intn(3)), sim.Time(100+b/2)
		batch := &fevent.Batch{SwitchID: sw, Timestamp: ts}
		for i := r.Intn(2 * fevent.MaxBatchRecords / 3); i >= 0; i-- {
			e := testEvents()[i%3]
			e.SwitchID, e.Timestamp, e.Flow.SrcPort = sw, ts, uint16(r.Intn(500))
			batch.Events = append(batch.Events, e)
		}
		st.Deliver(batch)
	}
	for _, mask := range []uint64{0, ^uint64(0), 1 << 5, r.Uint64(), r.Uint64()} {
		sel := st.ExportWhere(func(e *fevent.Event) bool { return slotMaskHas(mask, SlotOf(e.SwitchID, e.Flow)) })
		var want []byte
		for len(sel) > 0 {
			n := 1
			for n < len(sel) && n < fevent.MaxBatchRecords && sel[n].SwitchID == sel[0].SwitchID && sel[n].Timestamp == sel[0].Timestamp {
				n++
			}
			want, _ = (&fevent.Batch{SwitchID: sel[0].SwitchID, Timestamp: sel[0].Timestamp, Events: sel[:n]}).AppendTo(want)
			sel = sel[n:]
		}
		if got := captureSlots(st, mask); !bytes.Equal(got, want) {
			t.Fatalf("mask %#x: the capture is %d B, the reference image %d B", mask, len(got), len(want))
		}
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

// TestRecordFraming pins the bookkeeping record layout — the reserved
// sequence, the tag, the transfer, the body — and that a record in an
// older build's layout, or a truncated one, is refused.
func TestRecordFraming(t *testing.T) {
	for _, c := range []struct {
		rec  []byte
		tag  byte
		body []byte
	}{
		{encodeMark(0x20001, 0xF0), recMark, []byte{0, 0, 0, 0, 0, 0, 0, 0xF0}},
		{encodeRB(recCommit, 0x20001), recCommit, []byte{}},
		{encodeImportChunk(0x20001, chunkSeen, []byte{9, 9}), recImport, []byte{chunkSeen, 9, 9}},
	} {
		if !bytes.Equal(c.rec[:8], bytes.Repeat([]byte{0xFF}, 8)) {
			t.Fatalf("%q record does not open with the reserved sequence: %x", c.tag, c.rec)
		}
		tag, rb, body, err := parseRecord(c.rec)
		if err != nil || tag != c.tag || rb != 0x20001 || !bytes.Equal(body, c.body) || len(c.rec) != recordHdrLen+len(c.body) {
			t.Fatalf("%x parses to %q, rb %#x, body %x, %v", c.rec, tag, rb, body, err)
		}
		if _, err := collector.ViewPayload(c.rec); !errors.Is(err, collector.ErrRecordSeq) {
			t.Fatalf("the frame validator takes a %q record: %v", c.tag, err)
		}
	}
	legacy := append([]byte{'M'}, make([]byte, 16)...)
	if _, _, _, err := parseRecord(legacy); err == nil || !strings.Contains(err.Error(), "drain the shard with that build") {
		t.Fatalf("a record in the older layout: %v", err)
	}
	if _, _, _, err := parseRecord(encodeRB(recFence, 1)[:recordHdrLen-1]); err == nil {
		t.Fatal("a truncated record parsed")
	}
	if _, _, _, err := parseRecord([]byte{0x01, 2, 3}); err == nil {
		t.Fatal("a payload that is neither a frame nor a record parsed")
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

// recoverShard rebuilds a shard's store and open-transfer table from its
// WAL as StartShard does, without the listeners.
func recoverShard(w *wal.WAL) (*collector.Store, transfers, error) {
	open := make(transfers)
	store, _, err := collector.RecoverStore(w, open.replay())
	return store, open, err
}

// TestRecoverShardReplayDoesNotAllocate is the fabric's half of the
// recovery allocation pin (collector.TestRecoverReplayDoesNotAllocate):
// batch records go from the log into the store as bytes, so replaying
// 300 of them allocates for the store's growth, not once or more a record.
func TestRecoverShardReplayDoesNotAllocate(t *testing.T) {
	const records, frameHdrLen = 300, 8 // a frame's length and CRC words precede its payload
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
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
		if _, err := w.Append(frame[frameHdrLen:], false); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w, err = wal.Open(dir, wal.Options{}); err != nil {
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

// TestTheLogIsTheWire is the collector's test of the same name run
// against a shard: with no rebalance open, a shard's segments hold the
// client's frames — traced and untraced alike — byte for byte,
// concatenated, as a standalone collector's do.
func TestTheLogIsTheWire(t *testing.T) {
	dir := t.TempDir()
	n := startNode(t, 1, dir)
	conn, err := net.Dial("tcp", n.IngestAddr())
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for seq := uint64(1); seq <= 6; seq++ {
		b := &fevent.Batch{SwitchID: 3, Timestamp: sim.Time(seq), Seq: seq, Events: testEvents()[:1+seq%3]}
		if seq%2 == 0 {
			b.Trace = trace.Context{TraceID: seq, Parent: 9}
		}
		if wire, err = collector.AppendFrame(wire, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := conn.Write(wire); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for acked := uint64(0); acked < 6; {
		ack, err := wal.ReadRecord(conn, 8, nil)
		if err != nil {
			t.Fatalf("after ack %d: %v", acked, err)
		}
		acked = binary.BigEndian.Uint64(ack)
	}
	conn.Close()
	if err := n.Close(); err != nil {
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
		t.Fatalf("the shard's log holds %d bytes that are not the %d bytes of frames the client wrote", len(logged), len(wire))
	}
}

// TestOlderShardLogIsRefused: a log a shard wrote before bookkeeping
// records took the reserved sequence — every record opened with its tag,
// a frame with 'B' — is refused at start with the way to upgrade it, and
// the refusal holds the log as it was.
func TestOlderShardLogIsRefused(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := collector.AppendFrame(nil, &fevent.Batch{SwitchID: 3, Timestamp: 100, Seq: 1, Events: testEvents()[:1]})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(append([]byte{'B'}, frame[8:]...), false); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := StartShard(ShardOptions{ID: 1, Dir: dir, IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0",
			AdminAddr: "127.0.0.1:0"}); err == nil || !strings.Contains(err.Error(), "drain the shard with that build") {
			t.Fatalf("start %d on an older shard's log: %v", i, err)
		}
	}
}

// TestApplyAcksOnlyAPersistedConfig: a ring config the shard cannot
// persist is refused, and the shard keeps the epoch it had — on the wire,
// in memory and across a restart.
func TestApplyAcksOnlyAPersistedConfig(t *testing.T) {
	dir := t.TempDir()
	n := startNode(t, 1, dir)
	apply := func(epoch uint64) error {
		cfg := Config{Epoch: epoch, Shards: []ShardInfo{n.Info()}}
		for s := range cfg.Slots {
			cfg.Slots[s] = 1
		}
		_, err := adminCall(n.AdminAddr(), &adminReq{Op: "apply", Config: &cfg}, 5*time.Second)
		return err
	}
	if err := apply(3); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(configPath(dir)+".tmp", 0o755); err != nil { // the temporary file cannot be written
		t.Fatal(err)
	}
	if err := apply(4); err == nil || !strings.Contains(err.Error(), "persisting epoch 4") {
		t.Fatalf("apply of an unpersistable config: %v", err)
	}
	if got := n.Epoch(); got != 3 {
		t.Fatalf("after a failed apply the shard runs epoch %d, want 3", got)
	}
	n.Close()
	n = startNode(t, 1, dir)
	defer n.Close()
	if got := n.Epoch(); got != 3 {
		t.Fatalf("restarted at epoch %d, want 3", got)
	}
}

// TestApplyRefusedWhenConfigWriteFails: the disk fails its first fsync,
// which is the config file's; the apply is refused, the epoch stands,
// and no config file is left behind.
func TestApplyRefusedWhenConfigWriteFails(t *testing.T) {
	dir := t.TempDir()
	fault := faultfs.NewFault(faultfs.OS, faultfs.Plan{Seed: 11, FailSyncAt: 1})
	n, err := StartShard(ShardOptions{
		ID: 1, Dir: dir,
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
		WAL: wal.Options{FS: fault},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	cfg := Config{Epoch: 2, Shards: []ShardInfo{n.Info()}}
	for s := range cfg.Slots {
		cfg.Slots[s] = 1
	}
	_, err = adminCall(n.AdminAddr(), &adminReq{Op: "apply", Config: &cfg}, 5*time.Second)
	if err == nil || !strings.Contains(err.Error(), "persisting epoch 2") {
		t.Fatalf("apply on a failing disk: %v, want a refusal", err)
	}
	if got := n.Epoch(); got != 0 {
		t.Fatalf("epoch %d after a refused apply, want 0", got)
	}
	if _, err := os.Stat(configPath(dir)); !os.IsNotExist(err) {
		t.Fatalf("config file after a refused apply: %v", err)
	}
}

// TestStartShardRefusesUnreadableRingConfig: a config file that does not
// decode, or cannot be read, fails the start with its name; the node is
// released, so a start without the file succeeds in the same dir.
func TestStartShardRefusesUnreadableRingConfig(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plant func(path string) error
	}{
		{"corrupt", func(path string) error { return os.WriteFile(path, []byte(`{"epoch":`), 0o644) }},
		{"unknown shard", func(path string) error { return os.WriteFile(path, []byte(`{"epoch":3,"slots":[7]}`), 0o644) }},
		{"unreadable", func(path string) error { return os.Mkdir(path, 0o755) }},
	} {
		dir := filepath.Join(t.TempDir(), "s")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := tc.plant(configPath(dir)); err != nil {
			t.Fatal(err)
		}
		opts := ShardOptions{
			ID: 1, Dir: dir,
			IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0",
		}
		n, err := StartShard(opts)
		if err == nil {
			n.Close()
			t.Errorf("%s: StartShard succeeded", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), "ring-config.json") {
			t.Errorf("%s: error %q does not name the file", tc.name, err)
		}
		if err := os.RemoveAll(configPath(dir)); err != nil {
			t.Fatal(err)
		}
		n, err = StartShard(opts)
		if err != nil {
			t.Fatalf("%s: start after removing the file: %v", tc.name, err)
		}
		n.Close()
	}
}
