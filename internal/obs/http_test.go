package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(5)
	r.RegisterCounter(MChanRetransmits, &c)
	s, err := ServeHTTP(r, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := ValidateExposition([]byte(body)); err != nil {
		t.Fatalf("/metrics invalid: %v", err)
	}
	if !strings.Contains(body, MChanRetransmits+" 5\n") {
		t.Fatalf("live counter missing from /metrics:\n%s", body)
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/ status %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Fatalf("/debug/pprof/cmdline status %d", code)
	}

	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestSetHealth(t *testing.T) {
	s, err := ServeHTTP(NewRegistry(), "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	base := "http://" + s.Addr()

	if code, body := get(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("default /healthz = %d %q", code, body)
	}
	s.SetHealth(func() error { return fmt.Errorf("wal poisoned: disk on fire") })
	code, body := get(t, base+"/healthz")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("failed /healthz status = %d, want 503", code)
	}
	if !strings.Contains(body, "disk on fire") {
		t.Fatalf("failed /healthz body %q should carry the error", body)
	}
	s.SetHealth(nil)
	if code, body := get(t, base+"/healthz"); code != http.StatusOK || strings.TrimSpace(body) != "ok" {
		t.Fatalf("cleared /healthz = %d %q", code, body)
	}
}

func TestServeHTTPBadAddr(t *testing.T) {
	if _, err := ServeHTTP(NewRegistry(), "256.0.0.1:bad"); err == nil {
		t.Fatal("expected listen error")
	}
}

func TestStartLogger(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	r.RegisterCounter(MIngestFrames, &c)
	h := NewHistogram([]float64{1})
	h.Observe(2)
	r.RegisterHistogram(MIngestLag, h)

	var mu sync.Mutex
	var lines []string
	stop := StartLogger(r, 10*time.Millisecond, func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, fmt.Sprintf(format, args...))
		mu.Unlock()
	})
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := len(lines)
		mu.Unlock()
		if n > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop()
	mu.Lock()
	defer mu.Unlock()
	if len(lines) == 0 {
		t.Fatal("logger never fired")
	}
	if !strings.Contains(lines[0], MIngestFrames+" 3") {
		t.Fatalf("snapshot missing counter: %q", lines[0])
	}
	if strings.Contains(lines[0], "_bucket{") || strings.Contains(lines[0], "# TYPE") {
		t.Fatalf("snapshot should omit buckets and comments: %q", lines[0])
	}
	if !strings.Contains(lines[0], MIngestLag+"_count 1") {
		t.Fatalf("snapshot should keep histogram _count: %q", lines[0])
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("non-positive interval should panic")
			}
		}()
		StartLogger(r, 0, nil)
	}()
}
