package collector

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// TestImageSplitsRuns: AppendImage writes one batch per maximal run of a
// switch and a stamp, split at MaxBatchRecords — runs the store joined
// across separate appends included — and the image decodes back to the
// stored events and imports into an equal store. A bad image imports
// nothing, and the empty image is empty.
func TestImageSplitsRuns(t *testing.T) {
	mk := func(n int, sw uint16, ts sim.Time) []fevent.Event {
		evs := make([]fevent.Event, n)
		for i := range evs {
			evs[i] = fevent.Event{Type: fevent.TypePause, Flow: modelFlow(i % 5), Hash: modelFlow(i % 5).Hash(), EgressPort: uint8(i), SwitchID: sw, Timestamp: ts}
		}
		return evs
	}
	st := NewStore()
	var evs []fevent.Event
	for _, r := range []struct {
		n  int
		sw uint16
		ts sim.Time
	}{{3, 1, 10}, {1, 2, 10}, {1, 1, 10}, {2, 1, 11}, {fevent.MaxBatchRecords + 5, 1, 11}} {
		importEvents(t, st, mk(r.n, r.sw, r.ts))
		evs = append(evs, mk(r.n, r.sw, r.ts)...)
	}
	img := st.AppendImage(nil, &Filter{}, nil)
	var sizes []int
	for rest := img; len(rest) > 0; {
		_, _, recs, next, err := fevent.SplitBatch(rest)
		if err != nil {
			t.Fatal(err)
		}
		sizes, rest = append(sizes, len(recs)/fevent.RecordLen), next
	}
	if want := []int{3, 1, 1, fevent.MaxBatchRecords, 7}; fmt.Sprint(sizes) != fmt.Sprint(want) {
		t.Fatalf("batch sizes %v, want %v", sizes, want)
	}
	var got []fevent.Event
	var b fevent.Batch
	for rest := img; len(rest) > 0; got = append(got, b.Events...) {
		var err error
		if rest, err = fevent.DecodeBatch(rest, &b); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got, evs) {
		t.Fatalf("the image decodes to %d events, %d stored", len(got), len(evs))
	}
	dst := NewStore()
	if _, err := dst.ImportImage(img[:len(img)-1]); err == nil || dst.Len() != 0 {
		t.Fatalf("a truncated image: %v, %d events imported", err, dst.Len())
	}
	if _, err := dst.RemoveImage(img[:len(img)-1]); err == nil {
		t.Fatal("a truncated image fenced")
	}
	if n, err := dst.ImportImage(img); n != len(evs) || err != nil {
		t.Fatalf("ImportImage: %d, %v; want %d", n, err, len(evs))
	}
	if !bytes.Equal(dst.EncodeSnapshot(), st.EncodeSnapshot()) {
		t.Fatal("an imported image snapshots differently from the store that wrote it")
	}
	if got := NewStore().AppendImage(nil, &Filter{}, nil); len(got) != 0 {
		t.Fatalf("an empty store writes %d B", len(got))
	}
	if n, err := dst.RemoveImage(nil); n != 0 || err != nil {
		t.Fatalf("fencing the empty image: %d, %v", n, err)
	}
}
