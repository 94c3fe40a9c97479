package collector

import (
	"bufio"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"netseer/internal/fevent"
	"netseer/internal/obs"
	"netseer/internal/obs/trace"
	"netseer/internal/pkt"
	"netseer/internal/sim"
)

// QueryServer answers the operator queries of §3.2 over a line-oriented
// TCP protocol:
//
//	query [flow=proto:src:sport:dst:dport] [switch=N] [type=NAME]
//	      [code=NAME] [since=NANOS] [until=NANOS]
//	count  (same arguments)
//	flows  (in the order the store first saw them)
//	summary
//	latency [switch=N] [since=NANOS] [until=NANOS]
//	path flow=proto:src:sport:dst:dport
//	export  (query arguments; one base64 encoded batch per line)
//	stats
//
// Responses are one event (or value) per line, terminated by a line
// containing a single ".". Errors are "! message" lines. The stats verb
// dumps the process's self-telemetry in the Prometheus text format, so
// fetquery can observe a daemon without an HTTP client.
type QueryServer struct {
	store *Store
	reg   atomic.Pointer[obs.Registry] // what stats serves; nil until RegisterMetrics
	svc   *Service

	requests [len(queryVerbs)]obs.Counter
	errors   obs.Counter
}

// queryVerbs lists the line-protocol verbs, indexed by the per-verb
// request counters ("unknown" last, counting rejected commands).
var queryVerbs = [...]string{"query", "count", "flows", "path", "latency", "summary", "stats", "export", "trace", "unknown"}

func verbIndex(cmd string) int {
	for i, v := range queryVerbs {
		if v == cmd {
			return i
		}
	}
	return len(queryVerbs) - 1
}

// NewQueryServer starts a query listener on addr. Its stats verb answers
// with an error line until RegisterMetrics names a registry.
func NewQueryServer(store *Store, addr string) (*QueryServer, error) {
	svc, err := Listen(addr, nil)
	if err != nil {
		return nil, err
	}
	q := &QueryServer{store: store, svc: svc}
	svc.Start(nil, q.serve)
	return q, nil
}

// RegisterMetrics registers the per-verb request and error counters on r
// under netseer_query_*, and makes r what the stats verb serves. It is
// safe to call while the server is serving.
func (q *QueryServer) RegisterMetrics(r *obs.Registry) {
	for i := range queryVerbs {
		r.RegisterCounter(obs.MQueryRequests, &q.requests[i], obs.L("verb", queryVerbs[i]))
	}
	r.RegisterCounter(obs.MQueryErrors, &q.errors)
	q.reg.Store(r)
}

// Addr returns the listening address.
func (q *QueryServer) Addr() string { return q.svc.Addr() }

// Close stops the listener and closes every client connection, idle
// ones included.
func (q *QueryServer) Close() error { return q.svc.Close() }

func (q *QueryServer) serve(conn net.Conn) {
	sc := bufio.NewScanner(conn)
	// A result of tens of thousands of rows in 4 KiB writes is a thousand
	// syscalls, each waking the reader: 64 KiB matches what clients read.
	bw := bufio.NewWriterSize(conn, 64<<10)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		q.handle(line, bw)
		bw.Flush()
	}
}

// errf writes one "! message" error line plus the terminator and counts it.
func (q *QueryServer) errf(w *bufio.Writer, format string, args ...any) {
	q.errors.Inc()
	fmt.Fprintf(w, "! "+format+"\n.\n", args...)
}

func (q *QueryServer) handle(line string, w *bufio.Writer) {
	fields := strings.Fields(line)
	cmd := strings.ToLower(fields[0])
	q.requests[verbIndex(cmd)].Inc()
	switch cmd {
	case "query", "count":
		f, err := ParseFilter(fields[1:])
		if err != nil {
			q.errf(w, "%v", err)
			return
		}
		if cmd == "count" {
			fmt.Fprintf(w, "%d\n.\n", q.store.Count(f))
			return
		}
		// Rows are appended straight into the writer's buffer: a popular
		// flow answers with tens of thousands of them.
		events := q.store.Query(f)
		for i := range events {
			row := events[i].AppendTo(w.AvailableBuffer())
			row = events[i].Timestamp.AppendTo(append(row, " t="...))
			w.Write(append(row, '\n'))
		}
		fmt.Fprint(w, ".\n")
	case "flows":
		for _, fl := range q.store.Flows() {
			fmt.Fprintf(w, "%v\n", fl)
		}
		fmt.Fprint(w, ".\n")
	case "path":
		const usage = "usage: path flow=proto:src:sport:dst:dport"
		if len(fields) != 2 {
			q.errf(w, usage)
			return
		}
		f, err := ParseFilter(fields[1:])
		if err != nil {
			q.errf(w, "%v", err)
			return
		}
		if f.Flow == nil {
			q.errf(w, usage)
			return
		}
		for _, h := range q.store.PathOf(*f.Flow) {
			fmt.Fprintf(w, "switch=%d in=%d out=%d t=%v\n", h.SwitchID, h.In, h.Out, h.At)
		}
		fmt.Fprint(w, ".\n")
	case "latency":
		f, err := ParseFilter(fields[1:])
		if err != nil {
			q.errf(w, "%v", err)
			return
		}
		if f.Flow != nil || f.DropCode != fevent.DropNone || f.Type != 0 && f.Type != fevent.TypeCongestion {
			q.errf(w, "latency is over congestion events: it takes switch=, since= and until= only")
			return
		}
		if h := q.store.LatencyHistogram(f); h.Count == 0 {
			fmt.Fprintln(w, h)
		} else {
			fmt.Fprintf(w, "%s us\n[%s]\n", h, h.Sparkline(32))
		}
		fmt.Fprint(w, ".\n")
	case "summary":
		for _, row := range q.store.Summary() {
			fmt.Fprintf(w, "switch=%d type=%s events=%d flows=%d\n",
				row.SwitchID, row.Type, row.Events, row.Flows)
		}
		fmt.Fprint(w, ".\n")
	case "export":
		// Machine-readable variant of "query": one base64 line per
		// encoded batch of the store's record image (Store.AppendImage). fetquery's fan-out merge consumes
		// this — text rendering loses the fields the cross-shard dedup
		// identity needs.
		f, err := ParseFilter(fields[1:])
		if err != nil {
			q.errf(w, "%v", err)
			return
		}
		img := q.store.AppendImage(nil, &f, nil)
		for len(img) > 0 {
			_, _, _, rest, _ := fevent.SplitBatch(img) // AppendImage wrote whole batches
			w.Write(append(base64.StdEncoding.AppendEncode(w.AvailableBuffer(), img[:len(img)-len(rest)]), '\n'))
			img = rest
		}
		fmt.Fprint(w, ".\n")
	case "stats":
		reg := q.reg.Load()
		if reg == nil {
			q.errf(w, "stats not available (no registry)")
			return
		}
		reg.WritePrometheus(w)
		fmt.Fprint(w, ".\n")
	case "trace":
		// One compact JSON span per line from this process's recorder,
		// already in canonical (start, stage, span) order. fetquery's
		// -trace fan-out merges these lines across every shard into the
		// assembled cross-fabric trace.
		if len(fields) != 2 {
			q.errf(w, "usage: trace <id>")
			return
		}
		id, err := trace.ParseID(fields[1])
		if err != nil {
			q.errf(w, "%v", err)
			return
		}
		for _, sp := range trace.Spans(id) {
			line, err := json.Marshal(sp.JSON())
			if err != nil {
				q.errf(w, "%v", err)
				return
			}
			w.Write(line)
			w.WriteByte('\n')
		}
		fmt.Fprint(w, ".\n")
	default:
		q.errf(w, "unknown command %q", cmd)
	}
}

// QueryLines is the line protocol's client: it sends one request line to
// the query server at addr and calls fn on each line of the answer up to
// the "." terminator. A "! message" answer, an error from fn, or a
// connection that closes mid-answer is returned as an error. timeout
// bounds the dial and the whole exchange; 0 sets no deadline.
func QueryLines(addr, req string, timeout time.Duration, fn func(line string) error) error {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return err
	}
	defer conn.Close()
	if timeout > 0 {
		conn.SetDeadline(time.Now().Add(timeout))
	}
	if _, err := io.WriteString(conn, req+"\n"); err != nil {
		return err
	}
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "." {
			return nil
		}
		if msg, ok := strings.CutPrefix(line, "!"); ok {
			return fmt.Errorf("query %s: %s", addr, strings.TrimSpace(msg))
		}
		if err := fn(line); err != nil {
			return err
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	return fmt.Errorf("query %s: closed mid-response", addr)
}

// ParseFilter parses key=value query arguments into a Filter.
func ParseFilter(args []string) (Filter, error) {
	var f Filter
	for _, a := range args {
		k, v, ok := strings.Cut(a, "=")
		if !ok {
			return f, fmt.Errorf("malformed argument %q", a)
		}
		switch strings.ToLower(k) {
		case "flow":
			fl, err := ParseFlow(v)
			if err != nil {
				return f, err
			}
			f.Flow = &fl
		case "switch":
			n, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return f, fmt.Errorf("bad switch id %q", v)
			}
			id := uint16(n)
			f.SwitchID = &id
		case "type":
			t, err := parseType(v)
			if err != nil {
				return f, err
			}
			f.Type = t
		case "code":
			c, err := parseDropCode(v)
			if err != nil {
				return f, err
			}
			f.DropCode = c
		case "since":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad since %q", v)
			}
			f.Since = sim.Time(n)
		case "until":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return f, fmt.Errorf("bad until %q", v)
			}
			f.Until = sim.Time(n)
		default:
			return f, fmt.Errorf("unknown key %q", k)
		}
	}
	return f, nil
}

// ParseFlow parses "proto:srcIP:srcPort:dstIP:dstPort", e.g.
// "tcp:10.0.0.1:1000:10.0.1.2:80".
func ParseFlow(s string) (pkt.FlowKey, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 5 {
		return pkt.FlowKey{}, fmt.Errorf("flow %q: want proto:src:sport:dst:dport", s)
	}
	var k pkt.FlowKey
	switch strings.ToLower(parts[0]) {
	case "tcp":
		k.Proto = pkt.ProtoTCP
	case "udp":
		k.Proto = pkt.ProtoUDP
	default:
		return k, fmt.Errorf("unknown protocol %q", parts[0])
	}
	src, err := parseIP(parts[1])
	if err != nil {
		return k, err
	}
	dst, err := parseIP(parts[3])
	if err != nil {
		return k, err
	}
	sp, err := strconv.ParseUint(parts[2], 10, 16)
	if err != nil {
		return k, fmt.Errorf("bad src port %q", parts[2])
	}
	dp, err := strconv.ParseUint(parts[4], 10, 16)
	if err != nil {
		return k, fmt.Errorf("bad dst port %q", parts[4])
	}
	k.SrcIP, k.DstIP = src, dst
	k.SrcPort, k.DstPort = uint16(sp), uint16(dp)
	return k, nil
}

// parseIP parses a strict dotted quad: exactly four decimal octets
// 0–255 and nothing else, so a typo is an error and not another flow.
func parseIP(s string) (uint32, error) {
	a, err := netip.ParseAddr(s)
	if err != nil || !a.Is4() {
		return 0, fmt.Errorf("bad IP %q", s)
	}
	q := a.As4()
	return binary.BigEndian.Uint32(q[:]), nil
}

func parseType(s string) (fevent.Type, error) {
	for _, t := range fevent.Types {
		if t.String() == strings.ToLower(s) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown event type %q", s)
}

// parseDropCode names a real drop code. "none" is the zero filter, which
// matches every event, not a code: it is rejected like any unknown name.
func parseDropCode(s string) (fevent.DropCode, error) {
	for c := fevent.DropParityError; c <= fevent.DropCorruption; c++ {
		if c.String() == strings.ToLower(s) {
			return c, nil
		}
	}
	return fevent.DropNone, fmt.Errorf("unknown drop code %q", s)
}
