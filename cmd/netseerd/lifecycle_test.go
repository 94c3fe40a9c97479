package main

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"netseer/internal/collector/wal"
	"netseer/internal/obs"
)

// fakeCollector records the lifecycle's calls in order; its scrubs
// quarantine one file and its health is a fixed error.
type fakeCollector struct {
	mu     sync.Mutex
	calls  []string
	health error
}

func (f *fakeCollector) call(name string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls = append(f.calls, name)
}

func (f *fakeCollector) Checkpoint() error { f.call("checkpoint"); return nil }
func (f *fakeCollector) ScrubWAL() (wal.ScrubReport, error) {
	f.call("scrub")
	return wal.ScrubReport{Quarantined: []string{"wal-00000007.seg (bad CRC)"}}, nil
}
func (f *fakeCollector) Drain(time.Duration) { f.call("drain") }
func (f *fakeCollector) Healthz() error      { return f.health }

func (f *fakeCollector) count(name string) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.calls {
		if c == name {
			n++
		}
	}
	return n
}

// logSink collects the lifecycle's log lines.
type logSink struct {
	mu    sync.Mutex
	lines []string
}

func (l *logSink) logf(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
}

func (l *logSink) find(substr string) string {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, line := range l.lines {
		if strings.Contains(line, substr) {
			return line
		}
	}
	return ""
}

// TestLifecycleRunsTheDurableCollector: ticks checkpoint and scrub the
// collector, a quarantined file is logged, /healthz reports the
// collector's health, and a signal drains the collector before its final
// checkpoint — after which no tick runs.
func TestLifecycleRunsTheDurableCollector(t *testing.T) {
	c := &fakeCollector{health: errors.New("disk gone")}
	logs := &logSink{}
	life := lifecycle{metricsAddr: "127.0.0.1:0", durable: true, checkpointEvery: 2 * time.Millisecond,
		scrubEvery: 3 * time.Millisecond, drainGrace: time.Second, logf: logs.logf}
	sig := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() { done <- life.run(c, obs.NewRegistry(), sig) }()

	deadline := time.Now().Add(10 * time.Second)
	for c.count("checkpoint") < 2 || c.count("scrub") < 2 || logs.find("quarantined") == "" {
		if time.Now().After(deadline) {
			t.Fatalf("after 10 s: %d checkpoints, %d scrubs, quarantine logged: %q",
				c.count("checkpoint"), c.count("scrub"), logs.find("quarantined"))
		}
		time.Sleep(time.Millisecond)
	}
	if line := logs.find("quarantined"); !strings.Contains(line, "wal-00000007.seg (bad CRC)") {
		t.Fatalf("the quarantine log line %q does not name the file", line)
	}
	metrics := strings.TrimPrefix(logs.find("metrics on http://"), "netseerd: metrics on ")
	resp, err := http.Get(strings.TrimSuffix(metrics, "/metrics, traces on /traces") + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "disk gone") {
		t.Fatalf("/healthz of an unhealthy collector: %d %q", resp.StatusCode, body)
	}

	sig <- syscall.SIGTERM
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	calls := slices.Clone(c.calls)
	c.mu.Unlock()
	if tail := calls[len(calls)-2:]; !slices.Equal(tail, []string{"drain", "checkpoint"}) || slices.Index(calls, "drain") != len(calls)-2 {
		t.Fatalf("calls end %v: want one drain, then the final checkpoint", calls[max(0, len(calls)-4):])
	}
	if logs.find("draining ingest (up to 1s)") == "" {
		t.Fatal("the drain was not logged")
	}
	time.Sleep(10 * time.Millisecond)
	if c.count("checkpoint")+c.count("scrub") != len(calls)-1 {
		t.Fatalf("a tick ran after shutdown: %d calls, was %d", c.count("checkpoint")+c.count("scrub")+1, len(calls))
	}
}

// TestLifecycleOfAnInMemoryCollector: with nothing to log into, no tick
// runs and a signal returns without a drain or a checkpoint.
func TestLifecycleOfAnInMemoryCollector(t *testing.T) {
	c := &fakeCollector{}
	life := lifecycle{checkpointEvery: time.Millisecond, scrubEvery: time.Millisecond, logf: (&logSink{}).logf}
	sig := make(chan os.Signal, 1)
	sig <- syscall.SIGINT
	if err := life.run(c, obs.NewRegistry(), sig); err != nil {
		t.Fatal(err)
	}
	if len(c.calls) != 0 {
		t.Fatalf("an in-memory collector got %v", c.calls)
	}
}

// TestLifecycleFailsOnAMetricsAddressInUse: the lifecycle reports a
// metrics listener it cannot start instead of running without one.
func TestLifecycleFailsOnAMetricsAddressInUse(t *testing.T) {
	srv, err := obs.ServeHTTP(obs.NewRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	life := lifecycle{metricsAddr: srv.Addr(), durable: true, logf: (&logSink{}).logf}
	if err := life.run(&fakeCollector{}, obs.NewRegistry(), nil); err == nil || !strings.Contains(err.Error(), "metrics listener") {
		t.Fatalf("run on a taken metrics address: %v", err)
	}
}
