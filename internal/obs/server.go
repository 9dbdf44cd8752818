package obs

// server.go is the live telemetry plane's HTTP surface: one embedded
// endpoint per process (enabled by the shared -obs-listen flag)
// serving
//
//	/metrics        Prometheus text exposition of the Sink's Registry
//	/healthz        liveness probe ({"status":"ok",...})
//	/progress       JSON snapshot of the Sink's Progress stages
//	/events         SSE stream of the Sink's Logger events
//	/debug/pprof/*  net/http/pprof (CPU/heap/goroutine profiling)
//
// The server owns a runtime/metrics collector that samples the Go
// runtime into the Registry on a ticker (and once per /metrics scrape,
// so even an idle process exposes fresh heap/GC numbers).

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"sync"
	"time"
)

// ServerOption configures NewServer.
type ServerOption func(*Server)

// WithServerClock injects the clock behind /healthz uptime and SSE
// heartbeats (nil means a wall clock started at construction). Tests
// use a SimClock.
func WithServerClock(c Clock) ServerOption {
	return func(s *Server) {
		if c != nil {
			s.clock = c
		}
	}
}

// WithCollectInterval sets the runtime/metrics sampling period
// (default 1s; <= 0 disables the ticker, leaving scrape-driven
// collection only).
func WithCollectInterval(d time.Duration) ServerOption {
	return func(s *Server) { s.collectEvery = d }
}

// Server is the embedded telemetry endpoint. Construct with
// NewServer, bind with Start, tear down with Close. A nil *Server is
// a no-op (Close and Addr are nil-safe), so CLIs can hold one
// unconditionally.
type Server struct {
	sink         Sink
	clock        Clock
	collector    *runtimeCollector
	collectEvery time.Duration

	http *http.Server
	ln   net.Listener

	mu     sync.Mutex
	done   chan struct{}
	closed bool
}

// NewServer builds a telemetry server publishing the given sink. The
// sink's fields may be nil — the handlers degrade to empty exposition
// / empty progress / an event stream that only heartbeats.
func NewServer(sink Sink, opts ...ServerOption) *Server {
	s := &Server{
		sink:         sink,
		collector:    newRuntimeCollector(sink.Metrics),
		collectEvery: time.Second,
		done:         make(chan struct{}),
	}
	for _, o := range opts {
		o(s)
	}
	if s.clock == nil {
		s.clock = NewWallClock()
	}

	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/progress", s.handleProgress)
	mux.HandleFunc("/events", s.handleEvents)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.http = &http.Server{Handler: mux}
	return s
}

// Handler exposes the telemetry mux — tests drive it through
// httptest without binding a port.
func (s *Server) Handler() http.Handler { return s.http.Handler }

// Start binds addr (":0" picks a free port) and serves in the
// background. It returns the bound address, which is how callers
// discover the real port.
func (s *Server) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("obs: telemetry listen %s: %w", addr, err)
	}
	s.ln = ln
	go s.http.Serve(ln)
	if s.collectEvery > 0 {
		go s.collectLoop()
	}
	s.collector.collect()
	return ln.Addr().String(), nil
}

// Addr returns the bound address ("" before Start or on nil).
func (s *Server) Addr() string {
	if s == nil || s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the collector ticker and shuts the HTTP server down,
// waiting briefly for in-flight handlers (SSE streams are woken via
// the done channel). Safe to call twice and on nil.
func (s *Server) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	s.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	return s.http.Shutdown(ctx)
}

func (s *Server) collectLoop() {
	t := time.NewTicker(s.collectEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.collector.collect()
		case <-s.done:
			return
		}
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.collector.collect() // scrape-fresh runtime series
	w.Header().Set("Content-Type", PromContentType)
	s.sink.Metrics.WritePrometheus(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(struct {
		Status   string  `json:"status"`
		UptimeMs float64 `json:"uptime_ms"`
	}{"ok", float64(s.clock.Now()) / float64(time.Millisecond)})
}

func (s *Server) handleProgress(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.sink.Progress.Snapshot())
}

// sseHeartbeat is how often an idle /events stream emits a comment
// line so proxies and clients see the connection is alive.
const sseHeartbeat = 15 * time.Second

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	// Subscribe before announcing the stream: every event logged after
	// the client reads the open comment is delivered, and the count
	// includes this stream.
	ch, cancel := s.sink.Log.Subscribe(256)
	defer cancel()
	fmt.Fprintf(w, ": stream open subscribers=%d\n\n", s.sink.Log.Subscribers())
	flusher.Flush()

	if s.sink.Log == nil {
		// No logger attached: heartbeat until the client or server
		// goes away so curl still sees a well-formed stream.
		s.heartbeatOnly(w, flusher, r.Context().Done())
		return
	}

	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case e, ok := <-ch:
			if !ok {
				return
			}
			buf, err := json.Marshal(e)
			if err != nil {
				continue
			}
			fmt.Fprintf(w, "id: %d\ndata: %s\n\n", e.Seq, buf)
			flusher.Flush()
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-r.Context().Done():
			return
		case <-s.done:
			return
		}
	}
}

func (s *Server) heartbeatOnly(w http.ResponseWriter, flusher http.Flusher, clientDone <-chan struct{}) {
	hb := time.NewTicker(sseHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			flusher.Flush()
		case <-clientDone:
			return
		case <-s.done:
			return
		}
	}
}
