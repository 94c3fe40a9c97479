package main

import (
	"bufio"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"

	"netseer/internal/collector"
	"netseer/internal/fevent"
	"netseer/internal/sim"
)

// queryWorkload is the store's read use: a populated store behind the
// line-protocol query server, one client connection replaying a fixed
// list. op_ms_p50 is the point lookup; work_per_s is dominated by the
// index and full scans, so an ingest-side gain bought by dropping or
// thinning an index shows here.
type queryWorkload struct {
	store   *collector.Store
	queries []query
	server  *collector.QueryServer
	conn    net.Conn
	rd      *bufio.Reader

	tr struct {
		byKind [numKinds][]float64 // TCP latency, ms
		rows   int
		flowQs int
	}
}

func (w *queryWorkload) name() string    { return "query_mixed" }
func (w *queryWorkload) unit() string    { return "queries answered" }
func (w *queryWorkload) op() string      { return "one query over the line protocol" }
func (w *queryWorkload) baseRounds() int { return 16 }

func (w *queryWorkload) prepare(e *env) error {
	batches := genBatches(e.cfg.seed, e.sc.queryEvents, e.sc.flows)
	w.store = collector.NewStore()
	for _, b := range batches {
		w.store.Deliver(b)
	}
	tMax := sim.Time(len(batches)+1) * batchSpacing
	w.queries = genQueries(e.cfg.seed, e.sc.queries, distinctFlows(batches), tMax)
	// The answer key: the store itself, asked through the same filter
	// parser the server uses.
	for i := range w.queries {
		f, err := collector.ParseFilter(strings.Fields(w.queries[i].line)[1:])
		if err != nil {
			return fmt.Errorf("query %q: %w", w.queries[i].line, err)
		}
		w.queries[i].want = len(w.store.Query(f))
	}
	if e.cfg.fault.perturbQuery {
		w.queries[len(w.queries)/2].want++
	}
	var err error
	if w.server, err = collector.NewQueryServer(w.store, "127.0.0.1:0"); err != nil {
		return err
	}
	if w.conn, err = net.Dial("tcp", w.server.Addr()); err != nil {
		return err
	}
	w.rd = bufio.NewReaderSize(w.conn, 64<<10)
	e.logf("  store: %d events, %d distinct flows; %d queries per round", w.store.Len(), len(w.store.Flows()), len(w.queries))
	return nil
}

func (w *queryWorkload) newRound(*env, *round) error { return nil }

func (w *queryWorkload) run(e *env, r *round) error {
	// One deadline for the round: a hung server fails the run well inside
	// the driver's limit instead of blocking it.
	if err := w.conn.SetDeadline(time.Now().Add(2 * time.Minute)); err != nil {
		return err
	}
	for i := range w.queries {
		q := &w.queries[i]
		sp := -1
		if r.traced {
			sp = e.tr.begin("query."+kindNames[q.kind], r.span, r.index)
		}
		start := time.Now()
		got, err := w.ask(q)
		ms := float64(time.Since(start)) / 1e6
		e.tr.end(sp)
		r.opsMs = append(r.opsMs, ms)
		if err == nil && got != q.want {
			err = fmt.Errorf("query_mixed round %d: %q answered %d, want %d", r.index, q.line, got, q.want)
		}
		e.led.op(err)
		if r.traced {
			w.tr.byKind[q.kind] = append(w.tr.byKind[q.kind], ms)
			if q.kind == kindFlow {
				w.tr.rows += got
				w.tr.flowQs++
			}
		}
	}
	r.units = int64(len(w.queries))
	return nil
}

// ask sends one line and reads the response up to its "." terminator,
// returning the row count of a query or the value of a count.
func (w *queryWorkload) ask(q *query) (int, error) {
	if _, err := w.conn.Write(q.wire); err != nil {
		return 0, err
	}
	rows, value := 0, 0
	for {
		line, err := w.rd.ReadSlice('\n')
		if err != nil {
			return 0, err
		}
		switch {
		case len(line) == 2 && line[0] == '.':
			if q.kind == kindFlow {
				return rows, nil
			}
			return value, nil
		case line[0] == '!':
			return 0, fmt.Errorf("query %q: server answered %s", q.line, strings.TrimSpace(string(line)))
		case q.kind != kindFlow && rows == 0:
			if value, err = strconv.Atoi(strings.TrimSpace(string(line))); err != nil {
				return 0, err
			}
		}
		rows++
	}
}

func (w *queryWorkload) check(*env, *round) {}

func (w *queryWorkload) endRound(*env, *round, bool) error { return nil }

func (w *queryWorkload) finish(*env) error {
	err := w.conn.Close()
	if cerr := w.server.Close(); err == nil {
		err = cerr
	}
	return err
}

func (w *queryWorkload) layers(e *env, u untraced, lv layerValues) error {
	t := &w.tr
	lv["collector.query.flow_us_p50"] = median(t.byKind[kindFlow]) * 1e3
	lv["collector.query.flow_us_p99"] = percentile(t.byKind[kindFlow], 99) * 1e3
	lv["collector.query.index_ms_p50"] = median(t.byKind[kindIndex])
	lv["collector.query.scan_ms_p50"] = median(t.byKind[kindScan])
	lv["collector.query.rows_per_flow_query"] = float64(t.rows) / float64(t.flowQs)

	// The same filters straight into Store.Query: what is left of the
	// TCP latency is the protocol (parse, format, loopback).
	var direct [numKinds][]float64
	var rows []fevent.Event
	total, err := e.tr.timed("replay.store.query", -1, -1, func() error {
		for i := range w.queries {
			q := &w.queries[i]
			f, err := collector.ParseFilter(strings.Fields(q.line)[1:])
			if err != nil {
				return err
			}
			start := time.Now()
			rows = w.store.Query(f)
			direct[q.kind] = append(direct[q.kind], float64(time.Since(start))/1e6)
			if len(rows) != q.want {
				return fmt.Errorf("direct %q returned %d rows, want %d", q.line, len(rows), q.want)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	lv["collector.store.query_flow_us_p50"] = median(direct[kindFlow]) * 1e3
	lv["collector.store.query_index_ms_p50"] = median(direct[kindIndex])
	lv["collector.store.query_scan_ms_p50"] = median(direct[kindScan])
	lv["collector.query.proto_us_p50"] = (median(t.byKind[kindFlow]) - median(direct[kindFlow])) * 1e3
	lv["trace.coverage"] = total.Seconds() / u.roundWallS

	// The store was filled once, in prepare; its cost per event is the
	// same ledger line the write workloads report.
	lv["collector.store.est_bytes_per_event"] = float64(w.store.MemoryBytes()) / float64(w.store.Len())
	return nil
}
