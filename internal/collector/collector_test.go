package collector

import (
	"bufio"
	"encoding/base64"
	"net"
	"strings"
	"testing"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

func flowN(n uint32) pkt.FlowKey {
	return pkt.FlowKey{SrcIP: pkt.IP(10, 0, 0, 1) + n, DstIP: pkt.IP(10, 0, 1, 2),
		SrcPort: uint16(1000 + n), DstPort: 80, Proto: pkt.ProtoTCP}
}

func batchOf(sw uint16, ts sim.Time, events ...fevent.Event) *fevent.Batch {
	return &fevent.Batch{SwitchID: sw, Timestamp: ts, Events: events}
}

func seedStore() *Store {
	s := NewStore()
	s.Deliver(batchOf(1, 100,
		fevent.Event{Type: fevent.TypeDrop, Flow: flowN(0), DropCode: fevent.DropNoRoute, SwitchID: 1, Timestamp: 100},
		fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(1), SwitchID: 1, Timestamp: 100},
	))
	s.Deliver(batchOf(2, 200,
		fevent.Event{Type: fevent.TypeDrop, Flow: flowN(0), DropCode: fevent.DropMMUCongestion, SwitchID: 2, Timestamp: 200},
		fevent.Event{Type: fevent.TypePathChange, Flow: flowN(2), SwitchID: 2, Timestamp: 200},
	))
	return s
}

func TestQueryByFlow(t *testing.T) {
	s := seedStore()
	f0 := flowN(0)
	got := s.Query(Filter{Flow: &f0})
	if len(got) != 2 {
		t.Fatalf("flow query returned %d, want 2", len(got))
	}
	for _, e := range got {
		if e.Flow != f0 {
			t.Errorf("wrong flow %v", e.Flow)
		}
	}
}

func TestQueryBySwitch(t *testing.T) {
	s := seedStore()
	sw := uint16(2)
	got := s.Query(Filter{SwitchID: &sw})
	if len(got) != 2 {
		t.Fatalf("switch query returned %d, want 2", len(got))
	}
}

func TestQueryByType(t *testing.T) {
	s := seedStore()
	got := s.Query(Filter{Type: fevent.TypeDrop})
	if len(got) != 2 {
		t.Fatalf("type query returned %d, want 2", len(got))
	}
}

func TestQueryByTimeWindow(t *testing.T) {
	s := seedStore()
	got := s.Query(Filter{Since: 150, Until: 250})
	if len(got) != 2 {
		t.Fatalf("window query returned %d, want 2", len(got))
	}
	got = s.Query(Filter{Until: 150})
	if len(got) != 2 {
		t.Fatalf("until query returned %d, want 2", len(got))
	}
}

func TestQueryByDropCode(t *testing.T) {
	s := seedStore()
	got := s.Query(Filter{Type: fevent.TypeDrop, DropCode: fevent.DropNoRoute})
	if len(got) != 1 || got[0].SwitchID != 1 {
		t.Fatalf("code query = %+v", got)
	}
}

func TestQueryCombined(t *testing.T) {
	s := seedStore()
	f0 := flowN(0)
	sw := uint16(1)
	got := s.Query(Filter{Flow: &f0, SwitchID: &sw})
	if len(got) != 1 {
		t.Fatalf("combined query returned %d, want 1", len(got))
	}
}

func TestFlowsAndCounts(t *testing.T) {
	s := seedStore()
	if len(s.Flows()) != 3 {
		t.Errorf("Flows() = %d, want 3", len(s.Flows()))
	}
	counts := s.CountByType()
	if counts[fevent.TypeDrop] != 2 || counts[fevent.TypeCongestion] != 1 {
		t.Errorf("CountByType = %v", counts)
	}
	if s.Len() != 4 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Reset()
	if s.Len() != 0 || len(s.Flows()) != 0 {
		t.Error("Reset incomplete")
	}
}

func TestTCPIngestEndToEnd(t *testing.T) {
	store := NewStore()
	srv, err := NewServerConfig(store, "127.0.0.1:0", ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cl := NewClientConfig(srv.Addr(), ClientConfig{})
	defer cl.Close()
	for i := 0; i < 10; i++ {
		cl.Deliver(batchOf(3, sim.Time(i),
			fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(uint32(i)), SwitchID: 3, Timestamp: sim.Time(i)}))
	}
	if err := cl.Flush(); err != nil {
		t.Fatal(err)
	}
	// Ingestion is asynchronous on the server side.
	deadline := time.Now().Add(2 * time.Second)
	for store.Len() < 10 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if store.Len() != 10 {
		t.Fatalf("stored %d events, want 10", store.Len())
	}
}

func TestClientBuffersWhileDisconnected(t *testing.T) {
	cl := NewClientConfig("127.0.0.1:1", ClientConfig{}) // nothing listens there
	defer cl.Close()
	cl.Deliver(batchOf(1, 1, fevent.Event{Type: fevent.TypePause, Flow: flowN(1)}))
	if err := cl.Flush(); err == nil {
		t.Error("Flush succeeded with unreachable collector")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var sb strings.Builder
	b := batchOf(9, 123, fevent.Event{Type: fevent.TypeDrop, Flow: flowN(5), DropCode: fevent.DropTTLExpired, SwitchID: 9, Timestamp: 123})
	if err := WriteFrame(&sb, b); err != nil {
		t.Fatal(err)
	}
	var got fevent.Batch
	if err := ReadFrame(strings.NewReader(sb.String()), &got); err != nil {
		t.Fatal(err)
	}
	if got.SwitchID != 9 || len(got.Events) != 1 || got.Events[0].DropCode != fevent.DropTTLExpired {
		t.Errorf("round trip = %+v", got)
	}
}

func TestReadFrameRejectsOversize(t *testing.T) {
	var got fevent.Batch
	data := []byte{0xff, 0xff, 0xff, 0xff}
	if err := ReadFrame(strings.NewReader(string(data)), &got); err == nil {
		t.Error("oversize frame accepted")
	}
}

func queryLine(t *testing.T, addr, req string) []string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte(req + "\n")); err != nil {
		t.Fatal(err)
	}
	var lines []string
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		if sc.Text() == "." {
			return lines
		}
		lines = append(lines, sc.Text())
	}
	t.Fatalf("no terminator in response %v", lines)
	return nil
}

func TestQueryServerProtocol(t *testing.T) {
	store := seedStore()
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()

	if lines := queryLine(t, qs.Addr(), "count type=drop"); len(lines) != 1 || lines[0] != "2" {
		t.Errorf("count = %v", lines)
	}
	lines := queryLine(t, qs.Addr(), "query switch=1")
	if len(lines) != 2 {
		t.Errorf("query switch=1 = %v", lines)
	}
	f := flowN(0)
	req := "query flow=tcp:" + pkt.IPString(f.SrcIP) + ":1000:" + pkt.IPString(f.DstIP) + ":80"
	if lines := queryLine(t, qs.Addr(), req); len(lines) != 2 {
		t.Errorf("flow query = %v", lines)
	}
	if lines := queryLine(t, qs.Addr(), "flows"); len(lines) != 3 {
		t.Errorf("flows = %v", lines)
	}
	if lines := queryLine(t, qs.Addr(), "bogus"); len(lines) != 1 || !strings.HasPrefix(lines[0], "!") {
		t.Errorf("bogus = %v", lines)
	}
	if lines := queryLine(t, qs.Addr(), "query nonsense"); len(lines) != 1 || !strings.HasPrefix(lines[0], "!") {
		t.Errorf("bad arg = %v", lines)
	}
}

// TestQueryServerLargeResult answers with more rows than the server's
// write buffer holds, so rows straddle its flushes: every line must still
// be the event's rendering followed by its timestamp's, and export lines
// must decode back to the events.
func TestQueryServerLargeResult(t *testing.T) {
	store := NewStore()
	const n = 3000 // ≈ 75 B a row: several 64 KiB buffers
	for i := 0; i < n; i++ {
		ts := sim.Time(i) * 37 * sim.Microsecond
		store.Deliver(batchOf(uint16(i%7), ts, fevent.Event{
			Type: fevent.Types[i%len(fevent.Types)], Flow: flowN(uint32(i % 3)), DropCode: fevent.DropCode(i % 5),
			SwitchID: uint16(i % 7), Timestamp: ts, EgressPort: uint8(i), Count: uint16(i * 31),
		}))
	}
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	want := store.Query(Filter{})
	lines := queryLine(t, qs.Addr(), "query")
	exported := queryLine(t, qs.Addr(), "export")
	// Every event has its own stamp, so export writes a batch, and a
	// line, for each.
	if len(lines) != n || len(exported) != n {
		t.Fatalf("query answered %d rows, export %d, want %d", len(lines), len(exported), n)
	}
	var got []fevent.Event
	var b fevent.Batch
	for i := range want {
		if w := want[i].String() + " t=" + want[i].Timestamp.String(); lines[i] != w {
			t.Fatalf("row %d = %q, want %q", i, lines[i], w)
		}
		raw, err := base64.StdEncoding.DecodeString(exported[i])
		if err == nil {
			_, err = fevent.DecodeBatch(raw, &b)
			got = append(got, b.Events...)
		}
		if err != nil || len(got) != i+1 || got[i] != want[i] {
			t.Fatalf("export row %d = %+v (%v), want %+v", i, got[len(got)-1:], err, want[i])
		}
	}
}

func TestParseFilterErrors(t *testing.T) {
	bad := [][]string{
		{"flow=zzz"},
		{"switch=abc"},
		{"type=nothing"},
		{"code=nothing"},
		{"code=none"},
		{"since=x"},
		{"until=x"},
		{"wat=1"},
		{"plain"},
	}
	for _, args := range bad {
		if _, err := ParseFilter(args); err == nil {
			t.Errorf("ParseFilter(%v) succeeded", args)
		}
	}
}

func TestParseFlowVariants(t *testing.T) {
	k, err := ParseFlow("udp:1.2.3.4:53:5.6.7.8:5353")
	if err != nil {
		t.Fatal(err)
	}
	want := pkt.FlowKey{SrcIP: pkt.IP(1, 2, 3, 4), DstIP: pkt.IP(5, 6, 7, 8), SrcPort: 53, DstPort: 5353, Proto: pkt.ProtoUDP}
	if k != want {
		t.Errorf("ParseFlow = %+v", k)
	}
	for _, s := range []string{"tcp:1:2:3", "icmp:1.2.3.4:1:5.6.7.8:2", "tcp:bad:1:5.6.7.8:2", "tcp:1.2.3.4:x:5.6.7.8:2", "tcp:1.2.3.4:1:5.6.7.8:x", "tcp:1.2.3.4:1:bad:2"} {
		if _, err := ParseFlow(s); err == nil {
			t.Errorf("ParseFlow(%q) succeeded", s)
		}
	}
}

func TestSummary(t *testing.T) {
	s := seedStore()
	rows := s.Summary()
	if len(rows) != 4 {
		t.Fatalf("summary rows = %d, want 4", len(rows))
	}
	// Sorted by switch then type; spot-check the first.
	if rows[0].SwitchID != 1 || rows[0].Events == 0 || rows[0].Flows == 0 {
		t.Errorf("first row = %+v", rows[0])
	}
	// Totals across rows match the store size.
	total := 0
	for _, r := range rows {
		total += r.Events
	}
	if total != s.Len() {
		t.Errorf("summary totals %d != store %d", total, s.Len())
	}
}

func TestQueryServerSummary(t *testing.T) {
	store := seedStore()
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	lines := queryLine(t, qs.Addr(), "summary")
	if len(lines) != 4 {
		t.Errorf("summary = %v", lines)
	}
	for _, l := range lines {
		if !strings.Contains(l, "switch=") || !strings.Contains(l, "events=") {
			t.Errorf("malformed summary line %q", l)
		}
	}
}

func TestLatencyHistogramAndPath(t *testing.T) {
	s := NewStore()
	s.Deliver(batchOf(1, 100,
		fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(1), SwitchID: 1, Timestamp: 100, QueueLatencyUs: 50},
		fevent.Event{Type: fevent.TypeCongestion, Flow: flowN(1), SwitchID: 2, Timestamp: 110, QueueLatencyUs: 500},
		fevent.Event{Type: fevent.TypePathChange, Flow: flowN(1), SwitchID: 1, Timestamp: 90, IngressPort: 1, EgressPort: 2},
		fevent.Event{Type: fevent.TypePathChange, Flow: flowN(1), SwitchID: 2, Timestamp: 95, IngressPort: 0, EgressPort: 3},
	))
	h := s.LatencyHistogram(Filter{})
	if h.Count != 2 {
		t.Errorf("histogram count = %d", h.Count)
	}
	sw := uint16(1)
	if got := s.LatencyHistogram(Filter{SwitchID: &sw, Type: fevent.TypePathChange}); got.Count != 1 {
		t.Errorf("filtered histogram count = %d: want switch 1's one congestion event, whatever type the filter names", got.Count)
	}
	hops := s.PathOf(flowN(1))
	if len(hops) != 2 {
		t.Fatalf("path hops = %d", len(hops))
	}
	if hops[0].SwitchID != 1 || hops[1].SwitchID != 2 {
		t.Errorf("path order = %+v", hops)
	}

	qs, err := NewQueryServer(s, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	// The verb passes its whole filter through: the window is honoured.
	for req, want := range map[string]string{
		"latency": "n=2", "latency type=congestion": "n=2", "latency switch=2": "n=1",
		"latency since=105": "n=1", "latency until=100": "n=1",
	} {
		lines := queryLine(t, qs.Addr(), req)
		if len(lines) != 2 || !strings.HasPrefix(lines[0], want+" mean=") || !strings.HasSuffix(lines[0], " us") ||
			!strings.HasPrefix(lines[1], "[") || !strings.HasSuffix(lines[1], "]") {
			t.Errorf("%q response = %q, want %q … us and a sparkline line", req, lines, want)
		}
	}
	// An empty selection has no unit to print and no distribution to draw.
	if lines := queryLine(t, qs.Addr(), "latency switch=1 since=101"); len(lines) != 1 || lines[0] != "empty" {
		t.Errorf("empty latency response = %q, want the one line \"empty\"", lines)
	}
	f := flowN(1)
	req := "path flow=tcp:" + pkt.IPString(f.SrcIP) + ":" + "1001" + ":" + pkt.IPString(f.DstIP) + ":80"
	lines := queryLine(t, qs.Addr(), req)
	if len(lines) != 2 {
		t.Errorf("path response = %v", lines)
	}
	if lines := queryLine(t, qs.Addr(), "path"); len(lines) != 1 || !strings.HasPrefix(lines[0], "!") {
		t.Errorf("path without flow = %v", lines)
	}
}
