package obs

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"
)

// Server exposes a registry over HTTP: /metrics (Prometheus text
// exposition), /healthz, and the net/http/pprof handlers for live
// profiling. The pprof handlers are mounted on the server's private mux,
// not http.DefaultServeMux, so importing this package never widens the
// surface of an unrelated server.
type Server struct {
	reg *Registry
	ln  net.Listener
	srv *http.Server
	wg  sync.WaitGroup

	healthMu sync.Mutex
	health   func() error
}

// Page is an extra handler mounted on the observability mux beside
// /metrics — the hook daemons use for /traces and the coordinator for
// /fleet.
type Page struct {
	Pattern string
	Handler http.Handler
}

// ServeHTTP starts an observability server on addr (e.g.
// "127.0.0.1:9752"). Pass an ":0" port to let the kernel choose; read it
// back with Addr. Extra pages are mounted on the same private mux.
func ServeHTTP(reg *Registry, addr string, pages ...Page) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", MetricsHandler(reg))
	for _, p := range pages {
		mux.Handle(p.Pattern, p.Handler)
	}
	s := &Server{reg: reg, ln: ln}
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if err := s.healthErr(); err != nil {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "unhealthy: %v\n", err)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.srv = &http.Server{Handler: mux, ReadHeaderTimeout: 5 * time.Second}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		if err := s.srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("obs: http server: %v", err)
		}
	}()
	return s, nil
}

// SetHealth installs a liveness check behind /healthz. When check
// returns a non-nil error the endpoint answers 503 with the error text —
// the hook a durability-failed collector uses to flag itself to
// orchestrators. A nil check restores the unconditional "ok".
func (s *Server) SetHealth(check func() error) {
	s.healthMu.Lock()
	s.health = check
	s.healthMu.Unlock()
}

// healthErr runs the installed health check, if any.
func (s *Server) healthErr() error {
	s.healthMu.Lock()
	check := s.health
	s.healthMu.Unlock()
	if check == nil {
		return nil
	}
	return check()
}

// Addr returns the bound listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops the server and waits for the serve loop to exit.
func (s *Server) Close() error {
	err := s.srv.Close()
	s.wg.Wait()
	return err
}

// MetricsHandler returns the /metrics handler for reg, for callers that
// mount it on their own mux.
func MetricsHandler(reg *Registry) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			log.Printf("obs: write /metrics: %v", err)
		}
	})
}

// SnapshotText renders a compact human-oriented snapshot: the full
// exposition minus comment and per-bucket lines (histograms keep their
// _sum/_count). netseerd -log-stats logs it.
func SnapshotText(reg *Registry) string {
	var sb strings.Builder
	_ = reg.WritePrometheus(&sb)
	var out strings.Builder
	for _, line := range strings.Split(sb.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") || strings.Contains(line, "_bucket{") {
			continue
		}
		out.WriteString("  ")
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return strings.TrimRight(out.String(), "\n")
}
