package obs

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
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

// TestSnapshotText: the snapshot keeps every series line, a histogram
// as its _sum and _count, and drops comments and buckets.
func TestSnapshotText(t *testing.T) {
	r := NewRegistry()
	var c Counter
	c.Add(3)
	r.RegisterCounter(MIngestFrames, &c)
	h := NewHistogram([]float64{1})
	h.Observe(2)
	r.RegisterHistogram(MIngestLag, h)

	text := SnapshotText(r)
	if !strings.Contains(text, MIngestFrames+" 3") {
		t.Fatalf("snapshot missing counter: %q", text)
	}
	if strings.Contains(text, "_bucket{") || strings.Contains(text, "# TYPE") {
		t.Fatalf("snapshot should omit buckets and comments: %q", text)
	}
	if !strings.Contains(text, MIngestLag+"_count 1") {
		t.Fatalf("snapshot should keep histogram _count: %q", text)
	}
}
