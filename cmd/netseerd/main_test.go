package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/collector/wal"
	"netseer/internal/faultfs"
	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// rottedLog fills dir through a standalone collector with 150
// single-event batches over tiny segments, then flips a byte in the
// middle sealed segment, whose records replay can then not read.
func rottedLog(t *testing.T, dir string) {
	t.Helper()
	node, err := collector.StartNode(dir, "127.0.0.1:0", "127.0.0.1:0", collector.ServerConfig{},
		wal.Options{SegmentBytes: 2 << 10}, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl := collector.NewClientConfig(node.Addr(), collector.ClientConfig{MaxQueue: 256})
	for i := 0; i < 150; i++ {
		f := pkt.FlowKey{SrcIP: pkt.IP(10, 31, 0, byte(i)), DstIP: pkt.IP(10, 31, 1, 1), SrcPort: uint16(i), DstPort: 80, Proto: pkt.ProtoTCP}
		cl.Deliver(&fevent.Batch{SwitchID: 4, Timestamp: sim.Time(i + 1), Events: []fevent.Event{
			{Type: fevent.TypeDrop, DropCode: fevent.DropNoRoute, Flow: f, Hash: f.Hash(), SwitchID: 4, Timestamp: sim.Time(i + 1)}}})
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	node.Close()
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	if len(segs) < 3 {
		t.Fatalf("want >= 3 segments for a mid-log rot, got %v", segs)
	}
	slices.Sort(segs)
	st, err := os.Stat(segs[len(segs)/2])
	if err != nil {
		t.Fatal(err)
	}
	if err := faultfs.FlipByte(segs[len(segs)/2], st.Size()/2); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryReportIsTheSameInBothModes: a standalone collector and a
// shard restarted over the same log, whose middle segment rotted, print
// the same recovery report, and it warns of the gap.
func TestRecoveryReportIsTheSameInBothModes(t *testing.T) {
	dir := t.TempDir()
	rottedLog(t, filepath.Join(dir, "standalone"))
	files, _ := filepath.Glob(filepath.Join(dir, "standalone", "*"))
	if err := os.Mkdir(filepath.Join(dir, "shard"), 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, "shard", filepath.Base(f)), data, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}

	standalone := &logSink{}
	node, err := collector.StartNode(filepath.Join(dir, "standalone"), "127.0.0.1:0", "127.0.0.1:0",
		collector.ServerConfig{}, wal.Options{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	logRecovery(standalone.logf, "D", node)
	node.Close()

	shard := &logSink{}
	sn, err := fabric.StartShard(fabric.ShardOptions{ID: 1, Dir: filepath.Join(dir, "shard"),
		IngestAddr: "127.0.0.1:0", QueryAddr: "127.0.0.1:0", AdminAddr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	logRecovery(shard.logf, "D", sn.Node)
	sn.Close()

	if gap := standalone.find("WARNING: replay gap: wal-"); gap == "" || !strings.Contains(gap, "acked events in the gap are lost") {
		t.Fatalf("the standalone report warns of no gap: %q", standalone.lines)
	}
	if !slices.Equal(shard.lines, standalone.lines) {
		t.Fatalf("the shard reports\n%s\nthe standalone collector\n%s",
			strings.Join(shard.lines, "\n"), strings.Join(standalone.lines, "\n"))
	}
	if line := standalone.find("recovered"); strings.HasPrefix(line, "netseerd: recovered 150 ") {
		t.Fatalf("every event recovered past the rotted segment: %q", line)
	}
}
