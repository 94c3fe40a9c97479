package collector

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"strings"
	"testing"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// FuzzReadFrame throws arbitrary bytes at the frame reader: it must never
// panic, and any frame it accepts must survive a re-encode/re-decode round
// trip, trace context included. The framing is the WAL's record codec, so
// wal.ReadRecord must accept and reject exactly the same framing, and a
// frame it accepts is then judged by ViewPayload alone.
//
// It is also the differential of the two ways in: the record view the
// server and WAL recovery use (readFramePayload) and the Events decoder
// (ReadFrame) must accept and reject exactly the same inputs, and what a
// store fed the view holds for each record must be the image
// AppendRecord(DecodeRecord(rec)) — whatever the wire put in the detail
// bytes the record's type does not define.
func FuzzReadFrame(f *testing.F) {
	frame := func(seq uint64, tc trace.Context, events ...fevent.Event) []byte {
		b := &fevent.Batch{SwitchID: 5, Timestamp: 77, Events: events, Seq: seq, Trace: tc}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, b); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// edited copies src and applies edit; resealed also restamps the
	// length and CRC, so the lie it plants reaches the payload validator.
	edited := func(src []byte, edit func(b []byte)) []byte {
		out := append([]byte(nil), src...)
		edit(out)
		return out
	}
	resealed := func(src []byte, edit func(b []byte)) []byte { return rewriteFrame(edited(src, edit)) }
	const ctxOff = wal.RecordHdrLen + frameSeqLen
	countOff := wal.RecordHdrLen + payloadHdrLen + fevent.BatchHeaderLen - 2
	addCount := func(b []byte, n uint16) {
		binary.BigEndian.PutUint16(b[countOff:], binary.BigEndian.Uint16(b[countOff:])+n)
	}

	flow := pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 3), DstIP: pkt.IP(10, 0, 1, 4), SrcPort: 33001, DstPort: 80, Proto: pkt.ProtoTCP}
	ev := fevent.Event{Type: fevent.TypeCongestion, Flow: flow, Hash: flow.Hash(), SwitchID: 5, Timestamp: 77, QueueLatencyUs: 12}
	drop := fevent.Event{Type: fevent.TypeDrop, Flow: flow, Hash: flow.Hash(), SwitchID: 5, Timestamp: 78, DropCode: fevent.DropMMUCongestion}
	whole := frame(9, trace.Context{}, ev)
	f.Add(whole)
	f.Add(frame(0, trace.Context{}))
	f.Add(whole[:3])                                   // truncated length header
	f.Add(whole[:len(whole)-2])                        // truncated body
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0})  // oversized length
	f.Add(append(append([]byte(nil), whole...), 0x01)) // trailing byte
	f.Add(bytes.Repeat([]byte{0}, 64))                 // zero noise

	// Traced frames: sampled, unsampled-but-assigned, and empty body.
	ctx := trace.Context{TraceID: 0x53a0c6e1b20f4d77, Parent: 0x9e3779b97f4a7c15, Flags: trace.FlagSampled}
	wholeTraced := frame(12, ctx, ev)
	f.Add(wholeTraced)
	f.Add(frame(10, trace.Context{TraceID: 1}))
	// Traced frame torn inside its 17-byte context.
	f.Add(wholeTraced[:20])

	// The record view's own corners: dirty pad bytes, an invalid type in
	// the last record only, a count one larger than the body.
	pause := fevent.Event{Type: fevent.TypePause, Flow: flow, Hash: flow.Hash(), EgressPort: 2, Queue: 1, Count: 3}
	churn := fevent.Event{Type: fevent.TypeTopKChurn, Flow: flow, Hash: flow.Hash(), EgressPort: 2, SketchErr: 9}
	three := frame(14, trace.Context{}, pause, churn, pause)
	recs := len(three) - 3*fevent.RecordLen
	f.Add(resealed(three, func(b []byte) { b[recs+16], b[recs+17], b[recs+fevent.RecordLen+15] = 0xde, 0xad, 0xbe }))
	f.Add(resealed(three, func(b []byte) { b[recs+2*fevent.RecordLen] = 0x7f }))
	f.Add(resealed(three, func(b []byte) { addCount(b, 1) }))

	// The framing's lies: two whole events, a flipped CRC bit, a length
	// word one record short, a count three past the body, and an
	// undefined type in a frame of one.
	f.Add(frame(10, trace.Context{}, ev, drop))
	f.Add(edited(whole, func(b []byte) { b[5] ^= 0x40 }))
	f.Add(edited(whole, func(b []byte) {
		binary.BigEndian.PutUint32(b[0:4], binary.BigEndian.Uint32(b[0:4])-fevent.RecordLen)
	}))
	f.Add(resealed(whole, func(b []byte) { addCount(b, 3) }))
	f.Add(frame(11, trace.Context{}, fevent.Event{Type: 0x7f, Flow: flow, Hash: flow.Hash(), SwitchID: 5, Timestamp: 79}))

	// The context's lies: a zero trace ID under a non-zero parent and
	// flags, and a frame whose length and CRC agree but whose payload ends
	// inside its context. Then two events under an unsampled context.
	f.Add(resealed(wholeTraced, func(b []byte) { clear(b[ctxOff : ctxOff+8]) }))
	f.Add(rewriteFrame(wholeTraced[:ctxOff+9]))
	f.Add(frame(13, trace.Context{TraceID: 21}, ev, drop))

	// The reserved sequence: a frame carrying 2⁶⁴−1, and a fabric shard's
	// mark record (transfer 1, mask 0xf0) sealed as the log seals it.
	// Neither is a frame.
	f.Add(resealed(whole, func(b []byte) { binary.BigEndian.PutUint64(b[wal.RecordHdrLen:], RecordSeq) }))
	mark := append(binary.BigEndian.AppendUint64(nil, RecordSeq), 'M')
	mark = binary.BigEndian.AppendUint64(binary.BigEndian.AppendUint64(mark, 1), 0xf0)
	f.Add(wal.AppendRecord(nil, mark))

	f.Fuzz(func(t *testing.T, data []byte) {
		var b fevent.Batch
		err := ReadFrame(bytes.NewReader(data), &b)
		view, payload, verr := readFramePayload(bytes.NewReader(data), nil)
		if (err == nil) != (verr == nil) || (err != nil && err.Error() != verr.Error()) {
			t.Fatalf("ReadFrame says %v, the record view says %v", err, verr)
		}
		rec, rerr := wal.ReadRecord(bytes.NewReader(data), MaxFrame, nil)
		if rerr != nil {
			if verr == nil || verr.Error() != rerr.Error() {
				t.Fatalf("the record codec says %v, the frame reader %v", rerr, verr)
			}
			return
		}
		if _, perr := ViewPayload(rec); (perr == nil) != (verr == nil) {
			t.Fatalf("the frame reader says %v, ViewPayload of the record says %v", verr, perr)
		}
		if err != nil {
			return // rejection is fine; panics are not
		}
		if b.Seq == RecordSeq {
			t.Fatal("accepted a frame carrying the sequence reserved for fabric records")
		}
		if !bytes.Equal(rec, payload) {
			t.Fatalf("the frame reader logs %x, the record codec reads %x", payload, rec)
		}
		if view.SwitchID != b.SwitchID || view.Timestamp != b.Timestamp || view.Seq != b.Seq || view.Trace != b.Trace || view.Events() != len(b.Events) {
			t.Fatalf("the record view %+v and the decoded batch %+v disagree", view, b)
		}
		// What the store keeps of each record is what re-encoding the
		// decoded event gives, and the payload (what the WAL logs) holds
		// the same image.
		st := NewStore()
		st.DeliverPayload(&view)
		stored := st.blocks
		for i := range b.Events {
			want := b.Events[i].AppendRecord(nil)
			var got [fevent.RecordLen]byte
			_, fid := stored[0].links(i)
			if stored[0].record(&st.flows, fid, i, &got); !bytes.Equal(got[:], want) {
				t.Fatalf("record %d stored as %x, AppendRecord(DecodeRecord) gives %x", i, got, want)
			}
			if got := payload[len(payload)-(len(b.Events)-i)*fevent.RecordLen:][:fevent.RecordLen]; !bytes.Equal(got, want) {
				t.Fatalf("record %d logged as %x, AppendRecord(DecodeRecord) gives %x", i, got, want)
			}
		}
		if got := st.Query(Filter{}); !slices.Equal(got, b.Events) {
			t.Fatalf("a store fed the view answers %v, the decoder gave %v", got, b.Events)
		}
		// A context without a trace ID is the zero context.
		if !b.Trace.Valid() && b.Trace != (trace.Context{}) {
			t.Fatalf("accepted an untraced context %+v that is not zero", b.Trace)
		}
		// Accepted frames must round-trip, trace context included.
		var buf bytes.Buffer
		if err := WriteFrame(&buf, &b); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		var b2 fevent.Batch
		if err := ReadFrame(&buf, &b2); err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if b2.Seq != b.Seq || b2.SwitchID != b.SwitchID ||
			b2.Timestamp != b.Timestamp || len(b2.Events) != len(b.Events) {
			t.Fatalf("round trip mismatch: %+v vs %+v", b, b2)
		}
		if b2.Trace != b.Trace {
			t.Fatalf("trace context round trip mismatch: %+v vs %+v", b.Trace, b2.Trace)
		}
	})
}

// FuzzLoadSnapshot throws arbitrary bytes at the snapshot decoder over a
// store that already holds events, through a reader that hands them out
// 1 to 7 bytes a call, so that every read the decoder makes is cut short.
// No input may panic. A rejected image leaves the store exactly as it
// was; an accepted one re-encodes to itself byte for byte, and that image
// loads into a fresh store with the same length, export digest and
// Summary. The seeds are images of an empty store, of one run, of a run a
// block end splits whose flow section spans two read chunks (the one seed
// over 4 KiB), of in-process per-event stamps (runs of one), of a store
// after RemoveImage, of a hundred flows, of a store fed hashes 1 to 30
// off their flow key's CRC, and of a RemoveImage whose image carried such
// hashes; then one run's image with its block at the wrong widths, with
// a link forward and with an entry's unused bits set.
func FuzzLoadSnapshot(f *testing.F) {
	events := func(n int, sw uint16, ts sim.Time, step sim.Time) []fevent.Event {
		evs := make([]fevent.Event, n)
		for i := range evs {
			evs[i] = fevent.Event{Type: fevent.Types[i%len(fevent.Types)], Flow: modelFlow(i % 7), SwitchID: sw, Timestamp: ts + sim.Time(i)*step, Count: uint16(i)}
			if evs[i].Type == fevent.TypeDrop {
				evs[i].DropCode = fevent.DropNoRoute
			}
		}
		return evs
	}
	oneRun := func() *Store {
		st := NewStore()
		st.Deliver(&fevent.Batch{SwitchID: 3, Timestamp: 50, Seq: 9, Events: events(12, 3, 50, 0)})
		return st
	}
	seed := func(st *Store, small bool) {
		img := st.EncodeSnapshot()
		if small && len(img) > 4<<10 {
			f.Fatalf("a %d B seed: every seed but the block-crossing one is at most 4 KiB", len(img))
		}
		f.Add(img)
	}
	seed(NewStore(), true)
	seed(oneRun(), true)
	split := NewStore()
	crossing := events(blockLen+30, 2, 70, 0)
	for i := range crossing {
		crossing[i].Flow = modelFlow(i % 300)
	}
	importEvents(f, split, crossing)
	seed(split, false)
	ones := NewStore()
	importEvents(f, ones, events(20, 4, 90, 1))
	seed(ones, true)
	removed := NewStore()
	for seq := uint64(1); seq <= 4; seq++ {
		removed.Deliver(&fevent.Batch{SwitchID: uint16(seq), Timestamp: sim.Time(seq), Seq: seq, Events: events(15, uint16(seq), sim.Time(seq), 0)})
	}
	removeEvents(f, removed, removed.Query(Filter{Type: fevent.TypeCongestion}))
	seed(removed, true)
	manyFlows := NewStore()
	wide := events(100, 5, 110, 0)
	for i := range wide {
		wide[i].Flow = modelFlow(i)
	}
	manyFlows.Deliver(&fevent.Batch{SwitchID: 5, Timestamp: 110, Seq: 1, Events: wide})
	seed(manyFlows, true)
	near := NewStore()
	offset := events(62, 6, 130, 0) // two flows, each hash 0…30 off the flow key's CRC
	for i := range offset {
		offset[i].Flow = modelFlow(i % 2)
		offset[i].Hash = offset[i].Flow.Hash() ^ uint32(i/2)
	}
	importEvents(f, near, offset)
	seed(near, true)
	fenced := NewStore()
	importEvents(f, fenced, offset)
	removeEvents(f, fenced, offset[3:4]) // its hash one off its key's CRC
	seed(fenced, true)
	if fenced.Len() != 61 {
		f.Fatalf("the RemoveImage seed holds %d events, want 61", fenced.Len())
	}
	one := oneRun().EncodeSnapshot()
	at := blocksOf(one)[0]
	for _, c := range []struct {
		want string
		edit func(b []byte)
	}{
		{"packed at 15 + 15 bits", func(b []byte) { b[at.hdr+5]++ }},
		{"links forward to event 3", func(b []byte) { b[at.packed+2*at.w] = 4 }},
		{"sets bits past", func(b []byte) { b[at.packed+at.w-1] |= 0x80 }},
	} {
		img := slices.Clone(one)
		c.edit(img)
		if err := NewStore().LoadSnapshot(img); err == nil || !strings.Contains(err.Error(), c.want) {
			f.Fatalf("a seed meant to be refused for %q: %v", c.want, err)
		}
		f.Add(img)
	}

	type state struct {
		n       int
		digest  uint64
		summary string
	}
	stateOf := func(st *Store) state {
		h := fnv.New64a()
		st.ExportWhere(func(e *fevent.Event) bool {
			h.Write(batchImage([]fevent.Event{*e}))
			return false
		})
		return state{st.Len(), h.Sum64(), fmt.Sprint(st.Summary())}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		st := oneRun()
		before := stateOf(st)
		if err := st.readSnapshot(&shortReader{data: data}, len(data), nil); err != nil {
			if got := stateOf(st); got != before {
				t.Fatalf("rejected image (%v) changed the store: %+v, was %+v", err, got, before)
			}
			return
		}
		img := st.EncodeSnapshot()
		if !bytes.Equal(img, data) {
			t.Fatalf("an accepted image of %d bytes re-encodes to %d other bytes", len(data), len(img))
		}
		loaded, again := stateOf(st), NewStore()
		if err := again.LoadSnapshot(img); err != nil {
			t.Fatalf("the re-encoded image of an accepted one: %v", err)
		}
		if got := stateOf(again); got != loaded {
			t.Fatalf("re-encoded and re-loaded: %+v, loaded %+v", got, loaded)
		}
	})
}

// shortReader hands out data 1, 2, …, 7 bytes a Read, then over again,
// and then err, io.EOF if it is nil.
type shortReader struct {
	data  []byte
	err   error
	reads int
}

func (r *shortReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		if r.err == nil {
			return 0, io.EOF
		}
		return 0, r.err
	}
	r.reads++
	n := copy(p[:min(len(p), 1+(r.reads-1)%7)], r.data)
	r.data = r.data[n:]
	return n, nil
}
