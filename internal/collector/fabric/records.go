package fabric

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"

	"netseer/internal/collector"
)

// WAL records. A shard's log holds the frames it ingested exactly as a
// standalone collector's does, interleaved with rebalance bookkeeping
// records, so replay reconstructs both the store and any rebalance that
// was open at the crash. A bookkeeping record opens with the sequence no
// frame may carry, collector.RecordSeq, then a one-byte tag and the
// transfer it belongs to:
//
//	[8 B 0xFF…FF] 'M' | rb (8 B) | mask (8 B)   — handoff mark: opens
//	                                 transfer rb on the source; the capture
//	                                 follows as chunks and is sealed by the
//	                                 commit
//	[8 B 0xFF…FF] 'I' | rb (8 B) | kind | body  — transfer chunk ('S' seen
//	                                 set, 'E' record image); buffered until
//	                                 commit
//	[8 B 0xFF…FF] 'C' | rb (8 B)   — commit: seal rb's chunks — a source
//	                                 capture if an 'M' opened rb here, a
//	                                 destination import otherwise
//	[8 B 0xFF…FF] 'F' | rb (8 B)   — fence: remove rb's captured multiset
//	[8 B 0xFF…FF] 'R' | rb (8 B)   — release: forget rb, keep the events
//
// rb identifies one transfer (the coordinator derives it from the target
// epoch and the transfer's index, so a node is either source or
// destination for a given rb, never both). The mark's capture is logged
// verbatim rather than recomputed at replay: recomputation would diverge
// whenever a shed batch sits below the mark (indexed by replay, absent
// from the live store when the capture ran). A mark whose commit is
// missing — crash mid-capture — is discarded whole at replay and the
// coordinator's retry starts it over. Checkpoints are refused while any
// rb is open, so a mark can never sink below a snapshot without its
// closing fence/release.
const (
	recMark    = 'M'
	recImport  = 'I'
	recCommit  = 'C'
	recFence   = 'F'
	recRelease = 'R'
)

// recordHdrLen is what every bookkeeping record carries before its body:
// the reserved sequence, the tag and the transfer.
const recordHdrLen = 8 + 1 + 8

// Import chunk kinds.
const (
	chunkSeen   = 'S'
	chunkEvents = 'E'
)

// legacyTags are the first bytes of the records a shard logged before
// bookkeeping records took the reserved sequence: each record opened with
// its tag, and an ingested frame with 'B'.
const legacyTags = "BMICFR"

// newRecord starts the bookkeeping record tag of transfer rb, with room
// for n more bytes of body.
func newRecord(tag byte, rb uint64, n int) []byte {
	out := make([]byte, 0, recordHdrLen+n)
	out = binary.BigEndian.AppendUint64(out, collector.RecordSeq)
	out = append(out, tag)
	return binary.BigEndian.AppendUint64(out, rb)
}

func encodeMark(rb, mask uint64) []byte {
	return binary.BigEndian.AppendUint64(newRecord(recMark, rb, 8), mask)
}

func encodeRB(tag byte, rb uint64) []byte { return newRecord(tag, rb, 0) }

func encodeImportChunk(rb uint64, kind byte, body []byte) []byte {
	return append(append(newRecord(recImport, rb, 1+len(body)), kind), body...)
}

// parseRecord splits a logged payload that is not a frame into its tag,
// transfer and body. A payload in the layout of an older shard build is
// refused with the way to upgrade it.
func parseRecord(p []byte) (tag byte, rb uint64, body []byte, err error) {
	if len(p) < 8 || binary.BigEndian.Uint64(p) != collector.RecordSeq {
		if len(p) > 0 && strings.IndexByte(legacyTags, p[0]) >= 0 {
			return 0, 0, nil, fmt.Errorf("fabric: WAL record tagged %q is in an older shard build's layout: "+
				"drain the shard with that build (SIGTERM checkpoints it) before upgrading (DESIGN §11)", p[0])
		}
		return 0, 0, nil, errors.New("fabric: WAL record is neither a frame nor a fabric record")
	}
	if len(p) < recordHdrLen {
		return 0, 0, nil, fmt.Errorf("fabric: %d-byte fabric record truncated", len(p))
	}
	return p[8], binary.BigEndian.Uint64(p[9:recordHdrLen]), p[recordHdrLen:], nil
}

// encodeSeenSet flattens a (switch, seq) dedup set: 10 bytes per entry.
func encodeSeenSet(ids []collector.BatchID) []byte {
	out := make([]byte, 0, len(ids)*10)
	for _, id := range ids {
		out = binary.BigEndian.AppendUint16(out, id.Switch)
		out = binary.BigEndian.AppendUint64(out, id.Seq)
	}
	return out
}

func decodeSeenSet(b []byte) ([]collector.BatchID, error) {
	if len(b)%10 != 0 {
		return nil, fmt.Errorf("fabric: seen set of %d bytes not a multiple of 10", len(b))
	}
	out := make([]collector.BatchID, 0, len(b)/10)
	for len(b) > 0 {
		out = append(out, collector.BatchID{
			Switch: binary.BigEndian.Uint16(b[0:2]),
			Seq:    binary.BigEndian.Uint64(b[2:10]),
		})
		b = b[10:]
	}
	return out, nil
}

// slotMaskHas reports whether slot is set in the mask.
func slotMaskHas(mask uint64, slot int) bool { return mask&(1<<uint(slot)) != 0 }
