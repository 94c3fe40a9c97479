package trace

import (
	"strings"
	"testing"

	"netseer/internal/obs"
)

func TestHandoffTraceID(t *testing.T) {
	a, b := HandoffTraceID(7), HandoffTraceID(7)
	if a != b {
		t.Fatalf("HandoffTraceID not deterministic: %x vs %x", a, b)
	}
	if a == 0 {
		t.Fatal("HandoffTraceID returned the untraced sentinel 0")
	}
	if HandoffTraceID(8) == a {
		t.Fatal("distinct transfers share a handoff trace ID")
	}
}

func TestRecorderCountsAndMetrics(t *testing.T) {
	rec := NewRecorder(4)
	rec.Record(Span{TraceID: 1, SpanID: rec.NewSpanID(), Stage: StageIngest})
	rec.Record(Span{TraceID: 1, SpanID: rec.NewSpanID(), Stage: NumStages}) // out of range: ignored
	if got := rec.Recorded(); got != 1 {
		t.Fatalf("Recorded = %d, want 1", got)
	}
	if got := rec.Dropped(); got != 0 {
		t.Fatalf("Dropped = %d, want 0", got)
	}

	reg := obs.NewRegistry()
	RegisterMetrics(reg, rec)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, obs.MTraceSpans+" 1") {
		t.Errorf("scrape missing %s 1:\n%s", obs.MTraceSpans, out)
	}
	if !strings.Contains(out, obs.MTraceSpansDropped+" 0") {
		t.Errorf("scrape missing %s 0:\n%s", obs.MTraceSpansDropped, out)
	}
}

func TestPackageLevelRecord(t *testing.T) {
	sp := Span{TraceID: 0xfeedf00d1234, SpanID: Default.NewSpanID(), Stage: StageFPElim,
		Start: 10, End: 20}
	Record(sp)
	for _, got := range Spans(sp.TraceID) {
		if got.SpanID == sp.SpanID {
			return
		}
	}
	t.Fatalf("Record(sp) not visible via Spans(%x)", sp.TraceID)
}

func TestSortSpansTieBreaks(t *testing.T) {
	spans := []Span{
		{Start: 5, Stage: StageIngest, SpanID: 2},
		{Start: 5, Stage: StageIngest, SpanID: 1},
		{Start: 5, Stage: StageBatcher, SpanID: 9},
		{Start: 1, Stage: StageStoreIndex, SpanID: 3},
	}
	SortSpans(spans)
	want := []Span{
		{Start: 1, Stage: StageStoreIndex, SpanID: 3},
		{Start: 5, Stage: StageBatcher, SpanID: 9},
		{Start: 5, Stage: StageIngest, SpanID: 1},
		{Start: 5, Stage: StageIngest, SpanID: 2},
	}
	for i := range want {
		if spans[i] != want[i] {
			t.Fatalf("position %d: got %+v, want %+v", i, spans[i], want[i])
		}
	}
}

func TestMustIDEmpty(t *testing.T) {
	if got := mustID(""); got != 0 {
		t.Fatalf("mustID(\"\") = %d, want 0", got)
	}
	if got := mustID("0x2a"); got != 0x2a {
		t.Fatalf("mustID(0x2a) = %d, want 42", got)
	}
}
