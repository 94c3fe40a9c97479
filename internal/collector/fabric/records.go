package fabric

import (
	"encoding/binary"
	"fmt"

	"netseer/internal/collector"
)

// WAL record envelope. A shard's log interleaves ingested batch frames
// with rebalance bookkeeping, discriminated by a one-byte tag so replay
// reconstructs both the store and any rebalance that was open at the
// crash:
//
//	'B' | frame payload            — ingested batch (seq + batch body)
//	'M' | rb (8 B) | mask (8 B)    — handoff mark: opens transfer rb on
//	                                 the source; the capture follows as
//	                                 chunks and is sealed by the commit
//	'I' | rb (8 B) | kind | body   — transfer chunk ('S' seen set, 'E'
//	                                 batch image); buffered until commit
//	'C' | rb (8 B)                 — commit: seal rb's chunks — a source
//	                                 capture if an 'M' opened rb here, a
//	                                 destination import otherwise
//	'F' | rb (8 B)                 — fence: remove rb's captured multiset
//	'R' | rb (8 B)                 — release: forget rb, keep the events
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
	recBatch   = 'B'
	recMark    = 'M'
	recImport  = 'I'
	recCommit  = 'C'
	recFence   = 'F'
	recRelease = 'R'
)

// Import chunk kinds.
const (
	chunkSeen   = 'S'
	chunkEvents = 'E'
)

// encodeBatchRecord wraps one ingest frame payload — this is the
// ServerConfig.WALEncode hook a ShardNode installs.
func encodeBatchRecord(payload []byte) []byte {
	out := make([]byte, 1+len(payload))
	out[0] = recBatch
	copy(out[1:], payload)
	return out
}

func encodeMark(rb, mask uint64) []byte {
	out := make([]byte, 17)
	out[0] = recMark
	binary.BigEndian.PutUint64(out[1:9], rb)
	binary.BigEndian.PutUint64(out[9:17], mask)
	return out
}

func encodeRB(tag byte, rb uint64) []byte {
	out := make([]byte, 9)
	out[0] = tag
	binary.BigEndian.PutUint64(out[1:9], rb)
	return out
}

func encodeImportChunk(rb uint64, kind byte, body []byte) []byte {
	out := make([]byte, 10+len(body))
	out[0] = recImport
	binary.BigEndian.PutUint64(out[1:9], rb)
	out[9] = kind
	copy(out[10:], body)
	return out
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
