package collector

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"strconv"
	"strings"
	"testing"

	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
)

// regValue extracts one sample value from the registry's exposition for
// asserting counter movement without reaching into the server's fields.
func regValue(t *testing.T, reg *obs.Registry, line string) string {
	t.Helper()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	for _, l := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(l, line+" ") {
			return strings.TrimPrefix(l, line+" ")
		}
	}
	t.Fatalf("no sample %q in exposition", line)
	return ""
}

func TestQueryStatsVerb(t *testing.T) {
	store := seedStore()
	reg := obs.NewRegistry()
	store.RegisterMetrics(reg)
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	qs.RegisterMetrics(reg)

	lines := queryLine(t, qs.Addr(), "stats")
	if len(lines) == 0 {
		t.Fatal("stats returned nothing")
	}
	body := strings.Join(lines, "\n") + "\n"
	if err := obs.ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("stats output is not a valid exposition: %v", err)
	}
	for _, want := range []string{
		obs.MStoreEvents, obs.MStoreFlows, obs.MDetectToStore + "_bucket",
		obs.MQueryRequests, obs.MGroupEvictions,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("stats output missing %s", want)
		}
	}
	// The stats request that produced the dump had already been counted
	// when the exposition rendered.
	if !strings.Contains(body, obs.MQueryRequests+`{verb="stats"} 1`) {
		t.Error("stats output does not count its own request")
	}
}

func TestQueryStatsVerbWithoutRegistry(t *testing.T) {
	qs, err := NewQueryServer(seedStore(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	lines := queryLine(t, qs.Addr(), "stats")
	if len(lines) != 1 || !strings.HasPrefix(lines[0], "!") {
		t.Errorf("stats without registry = %v, want error line", lines)
	}

	// A registry named while a client is asking is read race-free, and
	// the verb serves it from then on.
	asked := make(chan error)
	go func() {
		conn, err := net.Dial("tcp", qs.Addr())
		if err != nil {
			asked <- err
			return
		}
		defer conn.Close()
		fmt.Fprint(conn, strings.Repeat("stats\n", 4))
		sc := bufio.NewScanner(conn)
		for n := 0; n < 4 && sc.Scan(); {
			if sc.Text() == "." {
				n++
			}
		}
		asked <- sc.Err()
	}()
	reg := obs.NewRegistry()
	qs.RegisterMetrics(reg)
	if err := <-asked; err != nil {
		t.Fatal(err)
	}
	body := strings.Join(queryLine(t, qs.Addr(), "stats"), "\n")
	if !strings.Contains(body, obs.MQueryRequests+`{verb="stats"} 6`) {
		t.Errorf("stats after RegisterMetrics = %q, want all six requests counted", body)
	}
}

// Every error path of the line protocol answers with a "! message" line
// and moves the error counter; the verb counter attributes the request.
func TestQueryErrorPathsCounted(t *testing.T) {
	store := seedStore()
	reg := obs.NewRegistry()
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	qs.RegisterMetrics(reg)

	cases := []struct {
		name, req, verb string
	}{
		{"malformed_verb", "frobnicate", "unknown"},
		{"bad_flow_key", "query flow=zzz", "query"},
		{"ip_trailing_garbage", "query flow=tcp:10.0.0.1junk:1:10.0.0.2:2", "query"},
		{"ip_five_octets", "count flow=udp:10.0.0.1:1:10.0.0.2.5:2", "count"},
		{"ip_with_port", "path flow=tcp:1.2.3.4:80:1:10.0.0.2:2", "path"},
		{"unknown_event_code", "count code=warp-failure", "count"},
		{"no_drop_code", "count code=none", "count"},
		{"unknown_event_type", "query type=meltdown", "query"},
		{"bad_switch_id", "count switch=notanumber", "count"},
		{"path_missing_flow", "path", "path"},
		{"path_bad_flow", "path flow=1:2", "path"},
		{"path_filter_without_flow", "path switch=3", "path"},
		{"latency_bad_filter", "latency switch=x", "latency"},
		{"latency_flow", "latency flow=tcp:10.0.0.1:1:10.0.0.2:2", "latency"},
		{"latency_code", "latency code=no-route", "latency"},
		{"latency_other_type", "latency switch=1 type=drop", "latency"},
		{"export_bad_filter", "export type=meltdown", "export"},
		{"trace_missing_id", "trace", "trace"},
		{"trace_bad_id", "trace not-hex", "trace"},
	}
	for i, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			lines := queryLine(t, qs.Addr(), tc.req)
			if len(lines) != 1 || !strings.HasPrefix(lines[0], "! ") || strings.Contains(lines[0], "<nil>") {
				t.Fatalf("%q returned %v, want one error line that names the fault", tc.req, lines)
			}
			if got, want := regValue(t, reg, obs.MQueryErrors), strconv.Itoa(i+1); got != want {
				t.Errorf("after %q: %s = %s, want %s", tc.req, obs.MQueryErrors, got, want)
			}
			verbLine := obs.MQueryRequests + `{verb="` + tc.verb + `"}`
			if got := regValue(t, reg, verbLine); got == "0" {
				t.Errorf("after %q: %s still 0", tc.req, verbLine)
			}
		})
	}

	// A successful request moves its verb counter but not the error one.
	if lines := queryLine(t, qs.Addr(), "flows"); len(lines) == 0 || strings.HasPrefix(lines[0], "!") {
		t.Fatalf("flows = %v", lines)
	}
	if got, want := regValue(t, reg, obs.MQueryErrors), strconv.Itoa(len(cases)); got != want {
		t.Errorf("flows moved the error counter: %s, want %s", got, want)
	}
	if got := regValue(t, reg, obs.MQueryRequests+`{verb="flows"}`); got != "1" {
		t.Errorf("flows verb counter = %s, want 1", got)
	}
}

// TestQueryTraceVerb: the spans a sampled batch left in the process's
// recorder come back over the line protocol, one JSON object a line.
func TestQueryTraceVerb(t *testing.T) {
	store := seedStore()
	// The recorder is process-wide: a fixed trace ID would find an
	// earlier run's span too under -count.
	ctx := trace.Context{TraceID: trace.Default.NewSpanID(), Flags: trace.FlagSampled}
	store.Deliver(&fevent.Batch{SwitchID: 7, Timestamp: 300, Seq: 9, Trace: ctx, Events: []fevent.Event{
		{Type: fevent.TypePause, Flow: flowN(3), SwitchID: 7, Timestamp: 300},
	}})
	qs, err := NewQueryServer(store, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer qs.Close()
	lines := queryLine(t, qs.Addr(), "\n  trace "+trace.FormatID(ctx.TraceID)) // blank lines are skipped
	if len(lines) != 1 {
		t.Fatalf("trace returned %v, want the batch's one store-index span", lines)
	}
	var sp trace.SpanJSON
	if err := json.Unmarshal([]byte(lines[0]), &sp); err != nil {
		t.Fatalf("span line %q: %v", lines[0], err)
	}
	if sp.Trace != trace.FormatID(ctx.TraceID) || sp.Stage != trace.StageStoreIndex.String() || sp.Switch != 7 || sp.Seq != 9 || sp.Events != 1 {
		t.Errorf("span = %+v, want the store-index span of batch (7, 9) with one event", sp)
	}
	if lines := queryLine(t, qs.Addr(), "trace "+trace.FormatID(ctx.TraceID+1)); len(lines) != 0 {
		t.Errorf("trace of an unknown ID returned %v", lines)
	}
}

// TestParseIPStrict pins the dotted-quad parser: exactly four octets
// 0–255 and nothing after, so a typo never silently names another flow.
func TestParseIPStrict(t *testing.T) {
	for _, s := range []string{"10.0.0.1junk", "10.0.0.1.5", "1.2.3.4:80", "", "1.2.3", "1.2.3.", ".1.2.3", "1..2.3",
		"256.0.0.1", "1.2.3.256", "1.2.3.1000", "1.2.3.-4", " 1.2.3.4", "1.2.3.4 ", "a.b.c.d", "010.0.0.1", "::1", "::ffff:1.2.3.4"} {
		if ip, err := parseIP(s); err == nil {
			t.Errorf("parseIP(%q) = %s, want an error", s, pkt.IPString(ip))
		}
	}
	for s, want := range map[string]uint32{"0.0.0.0": 0, "10.0.1.2": pkt.IP(10, 0, 1, 2), "255.255.255.255": 0xffffffff} {
		if ip, err := parseIP(s); err != nil || ip != want {
			t.Errorf("parseIP(%q) = %#x, %v; want %#x", s, ip, err, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { parseIP("192.168.10.254") }); n != 0 {
		t.Errorf("parseIP allocates %v times on the success path", n)
	}
}
