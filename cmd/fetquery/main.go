// Command fetquery is the operator CLI against a running netseerd: it
// sends one query line and prints the response.
//
// Usage:
//
//	fetquery [-addr host:port] [-interval d] query type=drop code=no-route
//	fetquery count switch=3
//	fetquery flows
//	fetquery stats
//
// The stats verb dumps netseerd's self-telemetry (the same Prometheus
// text exposition its /metrics endpoint serves) over the query port —
// useful where only the query port is reachable. Every round is one
// connection carrying one request (collector.QueryLines); a single
// collector's answer has no deadline, and a "! message" refusal is an
// error. With -interval the request repeats until interrupted,
// watch-style: a failed round is retried after a jittered backoff of
// 50 ms doubling to 2 s instead of aborting the watch, single collector
// and fan-out alike.
//
// Against a sharded fabric, fetquery fans the query out to every shard
// and merges the answers time-ordered and deduplicated:
//
//	fetquery -coordinator host:9760 query type=drop
//	fetquery -addr s1:9751,s2:9751,s3:9751 query switch=3
//
// -coordinator fetches the published ring config (authoritative slot
// ownership, exact crash-window dedup); a comma-separated -addr list
// synthesizes one, which merges correctly except for double copies left
// by an unresolved handoff. When a shard does not answer, the output is
// a correct view of the shards that did and ends with a
// "# partial=true (k/n shards answered)" marker.
//
// -trace <id> assembles one batch trace across the fabric: every shard
// answers the query protocol's "trace" verb with the spans its recorder
// holds, and the union — deduplicated by span ID, sorted by start time —
// prints one hop per line from batcher flush to store index:
//
//	fetquery -coordinator host:9760 -trace 53a0c6e1b20f4d77
package main

import (
	"flag"
	"fmt"
	"log"
	"math/rand"
	"strings"
	"time"

	"netseer/internal/collector"
	"netseer/internal/collector/fabric"
	"netseer/internal/obs/trace"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:9751", "netseerd query address, or a comma-separated shard list to fan out")
	coord := flag.String("coordinator", "", "fabric coordinator address: fetch the ring config and fan out to its shards")
	interval := flag.Duration("interval", 0, "repeat the query at this interval (0: once)")
	timeout := flag.Duration("timeout", 5*time.Second, "per-shard timeout in fan-out mode")
	traceID := flag.String("trace", "", "assemble this batch trace ID across every shard and print the hops")
	flag.Parse()
	if *traceID != "" {
		runTrace(*coord, strings.Split(*addr, ","), *traceID, *timeout)
		return
	}
	if flag.NArg() == 0 {
		log.Fatal("usage: fetquery [-addr host:port[,host:port...]] [-coordinator host:port] [-interval d] [-trace id] <query|count|flows|path|latency|summary|stats|trace> [key=value ...]")
	}
	addrs := strings.Split(*addr, ",")
	if *coord != "" || len(addrs) > 1 {
		runFanOut(*coord, addrs, flag.Args(), *interval, *timeout)
		return
	}
	runSingle(addrs[0], strings.Join(flag.Args(), " "), *interval)
}

// runSingle is the classic one-collector path: one request a round, its
// answer printed as it arrives. A round sets no deadline, so a large
// answer is not cut short.
func runSingle(addr, req string, interval time.Duration) {
	watch(interval, func() error {
		return collector.QueryLines(addr, req, 0, func(line string) error {
			fmt.Println(line)
			return nil
		})
	})
}

// watch runs round once, or with an interval every interval until
// interrupted. A watch outlives a collector restart: a failed round is
// retried after a backoff that doubles from 50 ms to 2 s, each wait drawn
// from [d/2, d] so a fleet of watchers does not stampede a recovering
// collector. Without an interval a failed round is fatal.
func watch(interval time.Duration, round func() error) {
	backoff := 50 * time.Millisecond
	for {
		err := round()
		switch {
		case interval <= 0:
			if err != nil {
				log.Fatal(err)
			}
			return
		case err != nil:
			log.Printf("%v (retrying in ~%s)", err, backoff)
			time.Sleep(backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1)))
			backoff = min(2*backoff, 2*time.Second)
			continue
		}
		backoff = 50 * time.Millisecond
		time.Sleep(interval)
		fmt.Printf("--- %s\n", time.Now().Format(time.RFC3339))
	}
}

// runFanOut queries every shard of a fabric and merges. Only filter
// queries fan out: aggregate verbs (count, flows, stats) are answered
// per shard and cannot be merged without the raw events.
func runFanOut(coordAddr string, addrs []string, args []string, interval, timeout time.Duration) {
	if verb := args[0]; verb != "query" && verb != "export" {
		log.Fatalf("fan-out supports the query and export verbs only (got %q); aim -addr at one shard for %q", verb, verb)
	}
	filter := strings.Join(args[1:], " ")
	watch(interval, func() error {
		cfg, err := fanOutConfig(coordAddr, addrs, timeout)
		if err != nil {
			return fmt.Errorf("ring config: %w", err)
		}
		res := fabric.FanOutQuery(cfg, filter, timeout)
		for i := range res.Events {
			e := &res.Events[i]
			fmt.Printf("t=%d %s\n", e.Timestamp, e.String())
		}
		fmt.Printf("# %d events, epoch %d\n", len(res.Events), cfg.Epoch)
		if res.Partial {
			fmt.Printf("# partial=true (%d/%d shards answered)\n", res.ShardsOK, res.ShardsTotal)
		}
		return nil
	})
}

// runTrace assembles one batch trace across the fabric and prints the
// hops in start order, one line per span. The trailing partial marker
// mirrors runFanOut's: missing shards mean missing hops, not an error.
func runTrace(coordAddr string, addrs []string, idArg string, timeout time.Duration) {
	id, err := trace.ParseID(idArg)
	if err != nil {
		log.Fatalf("-trace: %v", err)
	}
	cfg, err := fanOutConfig(coordAddr, addrs, timeout)
	if err != nil {
		log.Fatalf("ring config: %v", err)
	}
	res := fabric.FanOutTrace(cfg, id, timeout)
	fmt.Printf("trace %s (%d spans, epoch %d)\n", trace.FormatID(id), len(res.Spans), cfg.Epoch)
	for _, j := range res.Spans {
		line := fmt.Sprintf("%-18s start=%d dur=%dns", j.Stage, j.Start, j.End-j.Start)
		if j.Shard != 0 {
			line += fmt.Sprintf(" shard=%d", j.Shard)
		}
		if j.Switch != 0 {
			line += fmt.Sprintf(" switch=%d", j.Switch)
		}
		if j.Seq != 0 {
			line += fmt.Sprintf(" seq=%d", j.Seq)
		}
		if j.Events != 0 {
			line += fmt.Sprintf(" events=%d", j.Events)
		}
		if j.Detail != 0 {
			line += fmt.Sprintf(" detail=%d", j.Detail)
		}
		line += fmt.Sprintf(" span=%s", j.Span)
		if j.Parent != "" {
			line += fmt.Sprintf(" parent=%s", j.Parent)
		}
		fmt.Println(line)
	}
	if res.Partial {
		fmt.Printf("# partial=true (%d/%d shards answered)\n", res.ShardsOK, res.ShardsTotal)
	}
}

// fanOutConfig resolves the ring config: the coordinator's published
// epoch when available, else one synthesized from the address list.
func fanOutConfig(coordAddr string, addrs []string, timeout time.Duration) (fabric.Config, error) {
	if coordAddr != "" {
		return fabric.FetchConfig(coordAddr, timeout)
	}
	shards := make([]fabric.ShardInfo, len(addrs))
	for i, a := range addrs {
		shards[i] = fabric.ShardInfo{ID: uint32(i + 1), Query: strings.TrimSpace(a)}
	}
	return fabric.Config{Epoch: 1, Shards: shards, Slots: fabric.AssignSlots(shards)}, nil
}
