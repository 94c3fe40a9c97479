package collector

import (
	"errors"
	"net"
	"sync"
	"time"

	"netseer/internal/obs"
)

// acceptRetryDelay is the pause after a transient Accept error (EMFILE,
// ECONNABORTED, …) before the next Accept.
const acceptRetryDelay = 50 * time.Millisecond

// Service is the one lifecycle of every TCP listener the collector runs —
// ingest, query, shard admin and coordinator: an accept loop that retries
// transient errors, an optional admission check, one goroutine per
// connection and the set of live connections. Stop closes the listener;
// Close also closes every live connection, then waits for the serving
// goroutines, so an idle client cannot hold a shutdown open.
type Service struct {
	ln      net.Listener
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	stopped bool
	wg      sync.WaitGroup

	retries obs.Counter // transient Accept errors retried
}

// Listen binds a TCP listener on addr, or takes ln when it is non-nil
// (the hook fault-injection harnesses interpose a flaky wire through).
// Nothing is accepted until Start.
func Listen(addr string, ln net.Listener) (*Service, error) {
	if ln == nil {
		var err error
		if ln, err = net.Listen("tcp", addr); err != nil {
			return nil, err
		}
	}
	return &Service{ln: ln, conns: make(map[net.Conn]struct{})}, nil
}

// Start runs the accept loop. Each accepted connection is first offered
// to admit, when non-nil, with the number of live connections; a refused
// one is closed at once. An admitted one is served by serve on its own
// goroutine and closed when serve returns.
func (v *Service) Start(admit func(live int) bool, serve func(net.Conn)) {
	v.wg.Add(1)
	go v.acceptLoop(admit, serve)
}

func (v *Service) acceptLoop(admit func(live int) bool, serve func(net.Conn)) {
	defer v.wg.Done()
	for {
		conn, err := v.ln.Accept()
		if err != nil {
			v.mu.Lock()
			stopped := v.stopped
			v.mu.Unlock()
			if stopped || errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient: back off briefly and keep accepting instead of
			// silently ending the listener.
			v.retries.Inc()
			time.Sleep(acceptRetryDelay)
			continue
		}
		// This loop is the only one to add connections, so the count
		// admit sees can only have fallen by the time conn is added.
		v.mu.Lock()
		live := len(v.conns)
		v.mu.Unlock()
		if admit != nil && !admit(live) {
			conn.Close()
			continue
		}
		v.mu.Lock()
		if v.stopped {
			v.mu.Unlock()
			conn.Close()
			continue
		}
		v.conns[conn] = struct{}{}
		v.wg.Add(1)
		v.mu.Unlock()
		go func() {
			defer v.wg.Done()
			defer func() {
				v.mu.Lock()
				delete(v.conns, conn)
				v.mu.Unlock()
				conn.Close()
			}()
			serve(conn)
		}()
	}
}

// Addr returns the listening address.
func (v *Service) Addr() string { return v.ln.Addr().String() }

// Stop closes the listener: nothing more is accepted, live connections
// are left to finish. Only the first call reports the listener's error.
func (v *Service) Stop() error {
	v.mu.Lock()
	already := v.stopped
	v.stopped = true
	v.mu.Unlock()
	if already {
		return nil
	}
	return v.ln.Close()
}

// each calls fn on every connection live when it is called; after Stop,
// that is every connection the Service will serve.
func (v *Service) each(fn func(net.Conn)) {
	v.mu.Lock()
	conns := make([]net.Conn, 0, len(v.conns))
	for c := range v.conns {
		conns = append(conns, c)
	}
	v.mu.Unlock()
	for _, c := range conns {
		fn(c)
	}
}

// Wait returns once the accept loop and every serving goroutine have
// ended; call it after Stop.
func (v *Service) Wait() { v.wg.Wait() }

// Close stops the listener, closes every live connection and waits for
// their goroutines to end. It reports Stop's error.
func (v *Service) Close() error {
	err := v.Stop()
	v.each(func(c net.Conn) { c.Close() })
	v.Wait()
	return err
}
