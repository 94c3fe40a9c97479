package collector

import (
	"bytes"
	"strings"
	"testing"

	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/obs/trace"
)

// tracedFrame encodes one well-formed frame carrying tc.
func tracedFrame(t *testing.T, seq uint64, tc trace.Context) []byte {
	t.Helper()
	b := batchOf(7, 42, fevent.Event{Type: fevent.TypeDrop, Flow: flowN(1),
		DropCode: fevent.DropNoRoute, SwitchID: 7, Timestamp: 42})
	b.Seq = seq
	b.Trace = tc
	var buf bytes.Buffer
	if err := WriteFrame(&buf, b); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTracedFrameRoundTrip(t *testing.T) {
	tc := trace.Context{TraceID: 0x53a0c6e1b20f4d77, Parent: 0x9e3779b97f4a7c15, Flags: trace.FlagSampled}
	raw := tracedFrame(t, 21, tc)
	var b fevent.Batch
	if err := ReadFrame(bytes.NewReader(raw), &b); err != nil {
		t.Fatalf("traced frame rejected: %v", err)
	}
	if b.Trace != tc {
		t.Errorf("trace context = %+v, want %+v", b.Trace, tc)
	}
	if b.Seq != 21 {
		t.Errorf("Seq = %#x, want 21", b.Seq)
	}
	if len(b.Events) != 1 || b.SwitchID != 7 {
		t.Errorf("batch body misparsed: %+v", &b)
	}
}

// TestUntracedFrameCarriesZeroContext: an untraced batch has the same
// frame layout, its context all zero — including a context that carries
// flags or a parent but no trace ID — and decodes to the zero Context.
func TestUntracedFrameCarriesZeroContext(t *testing.T) {
	ctx := func(raw []byte) []byte {
		return raw[wal.RecordHdrLen+frameSeqLen : wal.RecordHdrLen+payloadHdrLen]
	}
	for _, tc := range []trace.Context{{}, {Parent: 6, Flags: trace.FlagSampled}} {
		raw := tracedFrame(t, 3, tc)
		if !bytes.Equal(ctx(raw), make([]byte, trace.CtxWireLen)) {
			t.Fatalf("context %+v encoded as %x, want all zero", tc, ctx(raw))
		}
		var b fevent.Batch
		if err := ReadFrame(bytes.NewReader(raw), &b); err != nil || b.Trace != (trace.Context{}) || b.Seq != 3 {
			t.Fatalf("untraced frame read back as seq %d, context %+v, %v", b.Seq, b.Trace, err)
		}
	}
}

func TestTracedFrameRejections(t *testing.T) {
	raw := tracedFrame(t, 3, trace.Context{TraceID: 5, Parent: 6, Flags: trace.FlagSampled})

	// Torn inside the 17-byte context (resealed so the framing layer
	// passes and the payload validator sees the tear).
	var b fevent.Batch
	if err := ReadFrame(bytes.NewReader(rewriteFrame(raw[:wal.RecordHdrLen+frameSeqLen+4])), &b); err == nil {
		t.Error("frame torn inside its trace context accepted")
	}

	// A zero trace ID with a non-zero parent or flags: the context is a lie.
	for _, lie := range []trace.Context{{Parent: 6}, {Flags: trace.FlagSampled}} {
		zeroed := append([]byte(nil), raw...)
		lie.PutWire(zeroed[wal.RecordHdrLen+frameSeqLen:])
		if err := ReadFrame(bytes.NewReader(rewriteFrame(zeroed)), &b); err == nil ||
			!strings.Contains(err.Error(), "no trace ID") {
			t.Errorf("context %+v: err = %v, want its rejection", lie, err)
		}
	}
}

// rewriteFrame reseals a copy of a mutated frame so the lie survives the
// framing layer and reaches the payload validator.
func rewriteFrame(f []byte) []byte {
	out := append([]byte(nil), f...)
	wal.SealRecord(out)
	return out
}
