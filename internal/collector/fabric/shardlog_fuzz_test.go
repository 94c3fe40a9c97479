package fabric

import (
	"bytes"
	"encoding/base64"
	"net"
	"slices"
	"testing"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/wal"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// Shard log fuzz ops: each is an op byte and an argument byte.
const (
	opIngest = iota
	opMark
	opImport
	opFence
	opRelease
	opCrash
	opCheckpoint
	nOps
)

// fuzzEvents builds 1–3 events of switch sw at stamp ts from arg, spread
// over slots by their flows.
func fuzzEvents(sw uint16, ts sim.Time, arg byte) []fevent.Event {
	evs := make([]fevent.Event, 1+int(arg)%3)
	for i := range evs {
		evs[i] = fevent.Event{
			Type: fevent.TypeDrop, DropCode: fevent.DropNoRoute, SwitchID: sw, Timestamp: ts, Count: 1,
			Flow: pkt.FlowKey{SrcIP: pkt.IP(10, 7, arg, byte(i)), DstIP: pkt.IP(10, 8, 0, 1), SrcPort: uint16(arg) << 2, DstPort: 80, Proto: 6},
		}
		evs[i].Hash = evs[i].Flow.Hash()
	}
	return evs
}

// shardState is what a shard's log must reproduce: its store's record
// image and dedup set, and its open transfers.
type shardState struct {
	img  []byte
	seen []collector.BatchID
	open map[uint64]rbState
}

func stateOf(store *collector.Store, open transfers) shardState {
	s := shardState{img: store.AppendImage(nil, &collector.Filter{}, nil), seen: store.ExportSeen(), open: make(map[uint64]rbState)}
	for rb, st := range open {
		s.open[rb] = *st
	}
	return s
}

func (s *shardState) equal(o *shardState) bool {
	if !bytes.Equal(s.img, o.img) || !slices.Equal(s.seen, o.seen) || len(s.open) != len(o.open) {
		return false
	}
	for rb, st := range s.open {
		if ot, ok := o.open[rb]; !ok || ot.imported != st.imported || !bytes.Equal(ot.img, st.img) {
			return false
		}
	}
	return true
}

// FuzzShardLog drives a shard through a fuzzed run of what its log
// records — ingested frames, marks, imports, fences, releases — with
// checkpoints and crashes between them: frames go over the ingest wire,
// the rest through the admin handlers, and a crash restarts the shard
// from its directory. After each crash and at the end, the store and the
// open-transfer table recovered from the log must equal the live ones.
// A forged tail of bookkeeping records (tag, rb, body length, body) then
// appended to the log must be refused or recovered, never panic; the
// seeds reach each refusal the shard's replay handler has.
func FuzzShardLog(f *testing.F) {
	f.Add([]byte{opIngest, 1, opIngest, 2, opMark, 0xF3, opIngest, 7, opImport, 9, opCrash, 0,
		opFence, 0xF3, opRelease, 9, opCrash, 0, opCheckpoint, 0, opIngest, 1, opImport, 10, opCrash, 0}, []byte(nil))
	f.Add([]byte{opIngest, 4, opMark, 0x31, opCheckpoint, 0, opRelease, 0x31, opCheckpoint, 0, opIngest, 5}, []byte(nil))
	for _, forged := range [][]byte{
		{'M', 0, 3, 1, 2, 3}, // a truncated mark
		{'M', 0, 8, 0, 0, 0, 0, 0, 0, 0, 1, 'I', 0, 1, chunkSeen, 'C', 0, 0}, // a seen chunk in a source capture
		{'I', 0, 1, 'X', 'C', 0, 0},               // an unknown chunk kind
		{'I', 0, 0},                               // a truncated chunk
		{'I', 0, 3, chunkSeen, 1, 2, 'C', 0, 0},   // a seen set cut mid-entry
		{'I', 0, 3, chunkEvents, 1, 2, 'C', 0, 0}, // an image cut mid-batch
		{'Z', 0, 0},                               // an unknown tag
		{'F', 0, 0, 'R', 0, 0},                    // a fence and a release of no open transfer
	} {
		f.Add([]byte{opIngest, 3, opMark, 0xFF}, forged)
	}
	f.Fuzz(func(t *testing.T, ops, tail []byte) {
		if len(ops) > 64 || len(tail) > 256 {
			return
		}
		dir := t.TempDir()
		var n *ShardNode
		var conn net.Conn
		start := func() {
			n = startNode(t, 1, dir)
			var err error
			if conn, err = net.Dial("tcp", n.IngestAddr()); err != nil {
				n.Close()
				n = nil
				t.Fatal(err)
			}
		}
		stop := func() {
			conn.Close()
			n.Close()
			n = nil
		}
		start()
		defer func() {
			if n != nil {
				stop()
			}
		}()
		admin := func(req *adminReq) *adminResp {
			resp := n.handleAdmin(req)
			if !resp.OK {
				t.Fatalf("%s rb %d: %s", req.Op, req.RB, resp.Err)
			}
			return &resp
		}
		for i := 0; i+1 < len(ops); i += 2 {
			op, arg := ops[i]%nOps, ops[i+1]
			rb := uint64(arg%4) + 1
			switch op {
			case opIngest:
				sw, ts := uint16(arg%3)+1, sim.Time(i)
				frame, err := collector.AppendFrame(nil, &fevent.Batch{SwitchID: sw, Timestamp: ts, Seq: uint64(arg%16) + 1, Events: fuzzEvents(sw, ts, arg)})
				if err != nil {
					t.Fatal(err)
				}
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				if _, err := conn.Write(frame); err != nil {
					t.Fatal(err)
				}
				if _, err := wal.ReadRecord(conn, 8, nil); err != nil {
					t.Fatalf("ack: %v", err)
				}
			case opMark:
				admin(&adminReq{Op: "mark", RB: rb, Mask: uint64(arg) * 0x0101010101010101})
			case opImport:
				img, _ := (&fevent.Batch{SwitchID: 3, Timestamp: sim.Time(1000 + i), Events: fuzzEvents(3, sim.Time(1000+i), arg)}).AppendTo(nil)
				seen := encodeSeenSet([]collector.BatchID{{Switch: uint16(arg%3) + 1, Seq: uint64(arg>>4) + 1}})
				admin(&adminReq{Op: "import", RB: rb, Events: base64.StdEncoding.EncodeToString(img), Seen: base64.StdEncoding.EncodeToString(seen)})
			case opFence:
				admin(&adminReq{Op: "fence", RB: rb})
			case opRelease:
				admin(&adminReq{Op: "release", RB: rb})
			case opCheckpoint:
				if err := n.Checkpoint(); err != nil && len(n.openRB) == 0 {
					t.Fatalf("checkpoint with no transfer open: %v", err)
				}
			case opCrash:
				live := stateOf(n.Store(), n.openRB)
				stop()
				start()
				if got := stateOf(n.Store(), n.openRB); !got.equal(&live) {
					t.Fatalf("op %d: the restarted shard holds %d B of records, %d seen, %d open; the live one %d B, %d, %d",
						i/2, len(got.img), len(got.seen), len(got.open), len(live.img), len(live.seen), len(live.open))
				}
			}
		}
		live := stateOf(n.Store(), n.openRB)
		stop()

		w, err := wal.Open(dir, wal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		store, open, err := recoverShard(w)
		if err != nil {
			w.Close()
			t.Fatalf("recovering the log the handlers wrote: %v", err)
		}
		if got := stateOf(store, open); !got.equal(&live) {
			t.Fatalf("the recovered shard holds %d B of records, %d seen, %d open; the live one %d B, %d, %d",
				len(got.img), len(got.seen), len(got.open), len(live.img), len(live.seen), len(live.open))
		}

		for len(tail) >= 3 {
			body := tail[3:min(len(tail), 3+int(tail[2]))]
			if _, err := w.Append(append(newRecord(tail[0], uint64(tail[1]%4)+1, len(body)), body...), false); err != nil {
				t.Fatal(err)
			}
			tail = tail[3+len(body):]
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = wal.Open(dir, wal.Options{}); err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		recoverShard(w) // refused or recovered: only a panic fails
	})
}
