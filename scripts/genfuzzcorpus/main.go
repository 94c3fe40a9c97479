// Command genfuzzcorpus regenerates the checked-in seed corpora for
// FuzzReadFrame (internal/collector/testdata/fuzz/FuzzReadFrame/),
// FuzzWALRecord and FuzzWALReplay
// (internal/collector/wal/testdata/fuzz/...), FuzzSketch
// (internal/sketch/testdata/fuzz/...) and FuzzScheduler
// (internal/sim/testdata/fuzz/...).
// The seeds cover every framing-layer rejection branch — truncations,
// CRC corruption, length lies, record-count lies — plus valid inputs, so
// `make fuzz-smoke` starts from interesting inputs instead of empty
// noise.
//
// Run from the repo root: go run ./scripts/genfuzzcorpus
package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
)

func main() {
	writeFrameSeeds()
	writeWALRecordSeeds()
	writeWALReplaySeeds()
	writeSketchSeeds()
	writeSchedulerSeeds()
}

func writeFrameSeeds() {
	dir := filepath.Join("internal", "collector", "testdata", "fuzz", "FuzzReadFrame")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	frame := func(seq uint64, tc trace.Context, events ...fevent.Event) []byte {
		b := &fevent.Batch{SwitchID: 5, Timestamp: 77, Events: events, Seq: seq, Trace: tc}
		var buf bytes.Buffer
		if err := collector.WriteFrame(&buf, b); err != nil {
			fatal(err)
		}
		return buf.Bytes()
	}
	flow := pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 3), DstIP: pkt.IP(10, 0, 1, 4),
		SrcPort: 33001, DstPort: 80, Proto: pkt.ProtoTCP}
	ev := fevent.Event{Type: fevent.TypeCongestion, Flow: flow, Hash: flow.Hash(),
		SwitchID: 5, Timestamp: 77, QueueLatencyUs: 12}
	drop := fevent.Event{Type: fevent.TypeDrop, Flow: flow, Hash: flow.Hash(),
		SwitchID: 5, Timestamp: 78, DropCode: fevent.DropMMUCongestion}

	whole := frame(9, trace.Context{}, ev)

	mutate := func(src []byte, f func([]byte)) []byte {
		out := append([]byte(nil), src...)
		f(out)
		return out
	}

	seeds := map[string][]byte{
		"valid_one_event":  whole,
		"valid_two_events": frame(10, trace.Context{}, ev, drop),
		"valid_empty":      frame(0, trace.Context{}),
		"truncated_header": whole[:3],
		"truncated_body":   whole[:len(whole)-2],
		"trailing_byte":    append(append([]byte(nil), whole...), 0x01),
		// CRC field bytes 4..8 cover seq+body; flip one bit.
		"corrupt_crc": mutate(whole, func(b []byte) { b[5] ^= 0x40 }),
		// Length claims more than MaxFrame.
		"oversize_length": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		// Length lies small: claims fewer bytes than the body carries.
		"length_lies_small": mutate(whole, func(b []byte) {
			binary.BigEndian.PutUint32(b[0:4], binary.BigEndian.Uint32(b[0:4])-fevent.RecordLen)
		}),
		// Body's record count field inflated past the actual payload.
		"record_count_lie": mutate(whole, func(b []byte) { corruptRecordCount(b) }),
		// Valid framing around an undefined event type.
		"invalid_event_type": frame(11, trace.Context{}, fevent.Event{Type: 0x7f, Flow: flow, Hash: flow.Hash(),
			SwitchID: 5, Timestamp: 79}),
		"zero_noise": bytes.Repeat([]byte{0}, 64),
	}

	// Traced frames: the seeds above carry the zero context; these carry
	// a real one.
	ctx := trace.Context{TraceID: 0x53a0c6e1b20f4d77, Parent: 0x9e3779b97f4a7c15, Flags: trace.FlagSampled}
	traced := frame(12, ctx, ev)
	seeds["valid_traced"] = traced
	seeds["valid_traced_unsampled"] = frame(13, trace.Context{TraceID: 21}, ev, drop)
	// Context torn mid-way: the length word promises bytes that never come.
	seeds["traced_torn_ctx"] = traced[:20]
	// The context's trace ID zeroed under a non-zero parent and flags,
	// resealed so the lie reaches the payload validator.
	seeds["traced_zero_id"] = mutate(traced, func(b []byte) {
		for i := ctxOff; i < ctxOff+8; i++ {
			b[i] = 0
		}
		wal.SealRecord(b)
	})

	// The record view's corners (the fuzz target checks it against the
	// Events decoder): three records whose types leave detail bytes
	// undefined, resealed after each edit.
	pause := fevent.Event{Type: fevent.TypePause, Flow: flow, Hash: flow.Hash(), EgressPort: 2, Queue: 1, Count: 3}
	churn := fevent.Event{Type: fevent.TypeTopKChurn, Flow: flow, Hash: flow.Hash(), EgressPort: 2, SketchErr: 9}
	three := frame(14, trace.Context{}, pause, churn, pause)
	recs := len(three) - 3*fevent.RecordLen
	// Junk in the bytes a pause and a top-K record do not define.
	seeds["dirty_pad_bytes"] = mutate(three, func(b []byte) {
		b[recs+16], b[recs+17], b[recs+fevent.RecordLen+15] = 0xde, 0xad, 0xbe
		wal.SealRecord(b)
	})
	// Only the last record's type is undefined.
	seeds["invalid_type_last_record"] = mutate(three, func(b []byte) {
		b[recs+2*fevent.RecordLen] = 0x7f
		wal.SealRecord(b)
	})
	// The header counts one record more than the body holds.
	seeds["record_count_one_over"] = mutate(three, func(b []byte) {
		binary.BigEndian.PutUint16(b[recs-2:], 4)
		wal.SealRecord(b)
	})
	// A traced frame cut inside its context, with a matching length and
	// CRC: the payload is too short for its 17-byte context.
	seeds["traced_cut_in_ctx_resealed"] = mutate(traced[:ctxOff+9], wal.SealRecord)

	writeSeeds(dir, seeds)
}

// writeWALRecordSeeds covers the WAL record reader — the exact code path
// crash recovery runs over a possibly-torn segment tail. Layout per
// record: [4B length][4B CRC-32][payload].
func writeWALRecordSeeds() {
	dir := filepath.Join("internal", "collector", "wal", "testdata", "fuzz", "FuzzWALRecord")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	one := wal.AppendRecord(nil, []byte("wal-record-payload"))
	var three []byte
	for i := 0; i < 3; i++ {
		three = wal.AppendRecord(three, []byte(fmt.Sprintf("wal-record-%d", i)))
	}

	// A frame as the durable server logs it: a wire frame is the record
	// of its payload, byte for byte.
	var frame bytes.Buffer
	b := &fevent.Batch{SwitchID: 3, Timestamp: 55, Seq: 10, Trace: trace.Context{TraceID: 7, Parent: 9, Flags: trace.FlagSampled}}
	if err := collector.WriteFrame(&frame, b); err != nil {
		fatal(err)
	}

	mutate := func(src []byte, f func([]byte)) []byte {
		out := append([]byte(nil), src...)
		f(out)
		return out
	}

	seeds := map[string][]byte{
		"valid_one_record":    one,
		"valid_three_records": three,
		"valid_empty_payload": wal.AppendRecord(nil, nil),
		// A crash can tear anywhere: mid-header, mid-payload, or right
		// after a whole record followed by a torn next header.
		"torn_header":            one[:5],
		"torn_payload":           one[:len(one)-3],
		"valid_then_torn":        append(append([]byte(nil), one...), three[:6]...),
		"corrupt_crc":            mutate(one, func(b []byte) { b[6] ^= 0x10 }),
		"corrupt_payload":        mutate(one, func(b []byte) { b[len(b)-1] ^= 0x01 }),
		"truncated_length_word":  {0, 0},
		"oversize_length":        {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
		"length_exceeds_payload": mutate(one, func(b []byte) { binary.BigEndian.PutUint32(b[0:4], 200) }),
		"zero_noise":             bytes.Repeat([]byte{0}, 64),
		"frame_payload_traced":   frame.Bytes(),
	}
	writeSeeds(dir, seeds)
}

// writeWALReplaySeeds covers the whole-segment replay fuzzer
// (FuzzWALReplay), which plants each seed as a crash-tail segment, as a
// sealed mid-log segment followed by a valid one, and as a quarantined
// file. The shapes mirror what a dying disk actually leaves behind: a
// clean segment, a torn tail (cut in a record's header or in its
// payload), bit rot in the middle of a sealed file, and an empty
// rotation stub.
func writeWALReplaySeeds() {
	dir := filepath.Join("internal", "collector", "wal", "testdata", "fuzz", "FuzzWALReplay")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	var clean []byte
	for i := 0; i < 5; i++ {
		clean = wal.AppendRecord(clean, []byte(fmt.Sprintf("segment-record-%d", i)))
	}
	rotted := append([]byte(nil), clean...)
	rotted[len(rotted)/2] ^= 0xFF // one flipped bit's worth of rot, mid-file
	headerRot := append([]byte(nil), clean...)
	headerRot[0] ^= 0x80 // rot in a length word: framing desyncs immediately
	last := len(wal.AppendRecord(nil, []byte("segment-record-4")))

	seeds := map[string][]byte{
		"valid_segment":      clean,
		"torn_tail":          clean[:len(clean)-3],
		"torn_header":        clean[:len(clean)-last+5], // four records, then 5 of the fifth's 8 header bytes
		"ends_mid_payload":   clean[:len(clean)-last+8+6],
		"mid_segment_rot":    rotted,
		"length_word_rot":    headerRot,
		"empty_segment":      {},
		"zero_noise":         bytes.Repeat([]byte{0}, 64),
		"single_record":      wal.AppendRecord(nil, []byte("lone-record")),
		"oversize_then_gone": {0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0},
	}
	writeSeeds(dir, seeds)
}

// writeSketchSeeds covers the sketch-stage differential fuzzer
// (internal/sketch FuzzSketch). Each byte pair is one packet: byte 0
// packs the flow index (low nibble) and egress port (top two bits),
// byte 1 packs the size nibble and a time-advance flag — so the seeds
// steer the interesting regimes directly: one flow hammered past the
// heavy-hitter threshold, more flows than top-K counters (eviction
// churn), byte bursts dense enough to cross the spike threshold, and
// time jumps that roll the aggregate window.
func writeSketchSeeds() {
	dir := filepath.Join("internal", "sketch", "testdata", "fuzz", "FuzzSketch")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}

	op := func(flow, port, size byte, advance bool) []byte {
		b1 := size << 4
		if advance {
			b1 |= 1
		}
		return []byte{flow&0x0f | port<<6, b1}
	}
	stream := func(ops ...[]byte) []byte {
		var out []byte
		for _, o := range ops {
			out = append(out, o...)
		}
		return out
	}
	repeatOp := func(o []byte, n int) [][]byte {
		ops := make([][]byte, n)
		for i := range ops {
			ops[i] = o
		}
		return ops
	}

	var churn [][]byte // 16 flows round-robin over a 4-counter table
	for i := 0; i < 64; i++ {
		churn = append(churn, op(byte(i), byte(i)&3, 2, false))
	}
	var spike [][]byte // max-size packets on one port, no time advance
	for i := 0; i < 24; i++ {
		spike = append(spike, op(1, 3, 0x0f, false))
	}
	var windows [][]byte // every packet jumps time: repeated window rolls
	for i := 0; i < 32; i++ {
		windows = append(windows, op(byte(i), 1, 0x0f, true))
	}

	seeds := map[string][]byte{
		"single_packet":    op(0, 0, 1, false),
		"heavy_hitter":     stream(repeatOp(op(3, 2, 1, false), 40)...),
		"topk_churn":       stream(churn...),
		"spike_one_window": stream(spike...),
		"window_rolls":     stream(windows...),
		"mixed": stream(append(append(churn, spike...),
			op(9, 0, 7, true), op(9, 0, 7, false))...),
		"zero_noise": bytes.Repeat([]byte{0}, 64),
	}
	writeSeeds(dir, seeds)
}

// writeSchedulerSeeds covers the event scheduler's differential fuzzer
// (internal/sim FuzzScheduler; sched_model_test.go documents the program
// encoding: opcode byte, then an index into its delay table). The seeds
// put the fuzzer next to what the two-tier queue makes delicate: delays
// at the wheel span and one either side, a wheel event tying with an
// older heap event, the same slot a lap later, a Run that jumps the clock
// over a hundred laps, Cancel in either tier and on stale handles, and
// events that schedule at delay 0 from inside their own callback.
func writeSchedulerSeeds() {
	dir := filepath.Join("internal", "sim", "testdata", "fuzz", "FuzzScheduler")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	const (
		schedule, at, spawn, cancel, step, run, runBefore, runAll = 0, 1, 2, 3, 4, 5, 6, 7
		// Indices into progDelays; span is the wheel span (1024 ns).
		d0, d1, d63, d64, d80, d100, d1000 = 0, 1, 4, 5, 7, 8, 11
		spanM2, spanM1, span, spanP1       = 12, 13, 14, 15
		span2, span3, d5000, d100k, d4m    = 17, 19, 20, 21, 22
	)
	var laps []byte // constant per-hop delays, stepped through several laps
	for i := 0; i < 60; i++ {
		laps = append(laps, schedule, d100, at, d1000, schedule, d80, step, 0, step, 0, run, d80)
	}
	seeds := map[string][]byte{
		"span_boundary": {schedule, spanP1, schedule, span, schedule, spanM1, schedule, spanM2,
			step, 0, step, 0, runAll, 0},
		"wheel_ties_older_heap": {schedule, span2, run, spanP1, schedule, spanM1, at, spanM1, runAll, 0},
		"same_slot_next_lap": {schedule, d100, schedule, d100, schedule, span, schedule, span2,
			run, d100, schedule, span, schedule, span3, runAll, 0},
		"run_jumps_many_laps": {schedule, d1, run, d100k, schedule, d1000, schedule, d64, schedule, d63,
			runBefore, d1000, run, d4m, schedule, d0, step, 0},
		"cancel_every_tier": {schedule, d100, schedule, d100, schedule, d100, schedule, d5000, schedule, d100k,
			cancel, 1, cancel, 2, cancel, 0, cancel, 0, cancel, 3, step, 0, cancel, 4,
			schedule, 2, cancel, 4, cancel, 128, runAll, 0},
		"push_behind_canceled_tail": {schedule, d100, schedule, d100, schedule, d100, cancel, 2,
			schedule, d100, cancel, 1, schedule, d100, runAll, 0},
		"self_reschedule_zero": {spawn, d0, d0, spawn, d80, d0, spawn, span, spanM1, schedule, d80, runAll, 0},
		"per_hop_laps":         laps,
	}
	writeSeeds(dir, seeds)
}

func writeSeeds(dir string, seeds map[string][]byte) {
	for name, data := range seeds {
		path := filepath.Join(dir, name)
		content := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			fatal(err)
		}
		fmt.Println("wrote", path)
	}
}

// ctxOff is where a frame's trace context starts: after the record
// header and the 8-byte sequence.
const ctxOff = wal.RecordHdrLen + 8

// corruptRecordCount bumps the batch body's event-count field. The frame
// layout is [4B length][4B CRC][8B seq][17B trace ctx][batch body] and the
// batch header is switchID(2) timestamp(8) count(2), so the count sits at
// frame offset 8+8+17+10. The frame is resealed so the lie reaches the
// batch decoder instead of being caught by the checksum.
func corruptRecordCount(b []byte) {
	body := b[ctxOff+trace.CtxWireLen:]
	cnt := binary.BigEndian.Uint16(body[10:12])
	binary.BigEndian.PutUint16(body[10:12], cnt+3)
	wal.SealRecord(b)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genfuzzcorpus:", err)
	os.Exit(1)
}
