package oracle

import (
	"testing"

	"netseer/internal/fevent"
)

// TestExportedEventsAreTheirRecordImage pins what lets the collector
// keep only the 24 B record: every event the detection stages
// (core/detect.go, the sketch stage) emit, across the whole scenario
// matrix, sets no field its type's record does not carry — encoding it
// and decoding it back gives the same event.
func TestExportedEventsAreTheirRecordImage(t *testing.T) {
	seen := map[fevent.Type]int{}
	for _, sc := range Matrix(0x5eed) {
		for _, b := range Run(sc).Batches {
			for i := range b.Events {
				e := &b.Events[i]
				img := *e // DecodeRecord leaves switch and stamp alone
				if err := img.DecodeRecord(e.AppendRecord(nil)); err != nil {
					t.Fatalf("%s: %v does not decode: %v", sc, e, err)
				}
				if img != *e {
					t.Fatalf("%s: event %+v\n  decodes from its own record as %+v", sc, *e, img)
				}
				seen[e.Type]++
			}
		}
	}
	for _, ty := range fevent.Types {
		if seen[ty] == 0 {
			t.Errorf("no %s event in the whole matrix: the property was not exercised for it", ty)
		}
	}
}
