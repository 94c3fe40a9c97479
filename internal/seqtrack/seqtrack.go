// Package seqtrack is NetSeer's inter-device loss detection (§3.3), the
// one module every instrumented device runs on each of its links —
// switches, host NICs (§4) and middleboxes (§3.7, principle 1). A Port is
// one end of a link and plays both sides of it:
//
//   - upstream, it numbers each outgoing data or probe packet with a
//     consecutive ID and records it in a Ring (steps 1–2 of Fig. 5);
//   - downstream, a Tracker watches the IDs arriving and names any gap in
//     a Notification, sent back upstream in NotifyCopies high-priority
//     copies so that it survives the lossy link itself (steps 3–4);
//   - upstream again, the notified interval is queued and resolved one ID
//     at a time against the ring (step 5). The ring only ever holds the
//     newest N packets, so an interval is clipped to N on arrival, and a
//     slot that later traffic overwrote is a miss, never a wrong flow.
//
// The devices differ only in pacing and in what they do with a victim: a
// switch resolves one ID per trigger packet (a pipeline stage cannot
// loop) and builds a drop event; a NIC or middlebox processor loops,
// resolving the whole interval at once into its log or report.
package seqtrack

import (
	"encoding/binary"
	"fmt"
)

// NotifyCopies is the number of redundant copies of each loss notification
// the paper sends (§3.3).
const NotifyCopies = 3

// Notification reports that packet IDs in the inclusive interval
// [FromID, ToID] were not received on a link.
type Notification struct {
	// FromID..ToID is the missing interval (inclusive, mod 2³²).
	FromID uint32
	ToID   uint32
}

// Count returns the number of packets the notification covers.
func (n Notification) Count() uint32 { return n.ToID - n.FromID + 1 }

// NotificationLen is the wire size of an encoded notification: two 4-byte
// sequence numbers.
const NotificationLen = 8

// AppendTo appends the 8-byte encoding to b.
func (n Notification) AppendTo(b []byte) []byte {
	b = binary.BigEndian.AppendUint32(b, n.FromID)
	return binary.BigEndian.AppendUint32(b, n.ToID)
}

// DecodeNotification parses one encoded notification.
func DecodeNotification(b []byte) (Notification, error) {
	if len(b) < NotificationLen {
		return Notification{}, fmt.Errorf("seqtrack: notification truncated: %d bytes", len(b))
	}
	return Notification{
		FromID: binary.BigEndian.Uint32(b[0:4]),
		ToID:   binary.BigEndian.Uint32(b[4:8]),
	}, nil
}

// Tracker watches the packet-ID sequence arriving on one link. The zero
// value is ready and synchronizes to the first ID it sees. It is not safe
// for concurrent use.
type Tracker struct {
	expected uint32
	started  bool
}

// Observe processes the packet ID of one received packet and reports the
// gap that precedes it, if any.
//
// The link preserves ordering (it is a single fibre between two ports), so
// any jump forward means the skipped IDs were lost. A jump "backward"
// (a forward distance of 2³¹ or more) would mean reordering, which cannot
// happen on a point-to-point link; the tracker resynchronizes silently
// rather than fabricating an absurd gap.
func (t *Tracker) Observe(id uint32) (Notification, bool) {
	expected := t.expected
	t.expected = id + 1
	if !t.started {
		t.started = true
		return Notification{}, false
	}
	if dist := id - expected; dist == 0 || dist >= 1<<31 {
		return Notification{}, false
	}
	return Notification{FromID: expected, ToID: id - 1}, true
}
