package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestServer(t *testing.T, sink Sink, opts ...ServerOption) *httptest.Server {
	t.Helper()
	srv := NewServer(sink, opts...)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return ts
}

func TestHealthzUptimeUsesClock(t *testing.T) {
	clk := &SimClock{}
	clk.Set(1500 * time.Millisecond)
	ts := newTestServer(t, Sink{}, WithServerClock(clk), WithCollectInterval(0))

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var body struct {
		Status   string  `json:"status"`
		UptimeMs float64 `json:"uptime_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Status != "ok" {
		t.Errorf("status = %q, want ok", body.Status)
	}
	if body.UptimeMs != 1500 {
		t.Errorf("uptime_ms = %v, want 1500 (from SimClock)", body.UptimeMs)
	}
}

func TestProgressEndpoint(t *testing.T) {
	clk := &SimClock{}
	prog := NewProgress(clk)
	prog.Update("engine", F("iteration", 12), F("frontier_tiles", 3))
	clk.Set(250 * time.Millisecond) // age the stage on the fake clock
	ts := newTestServer(t, Sink{Progress: prog}, WithServerClock(clk), WithCollectInterval(0))

	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]StageSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	st, ok := got["engine"]
	if !ok {
		t.Fatalf("progress missing engine stage: %v", got)
	}
	if st.Updates != 1 || st.Fields["iteration"] != 12 || st.Fields["frontier_tiles"] != 3 {
		t.Errorf("engine stage = %+v", st)
	}
	if st.AgeMs != 250 {
		t.Errorf("age_ms = %v, want 250 (from SimClock)", st.AgeMs)
	}
}

func TestProgressEndpointEmptySink(t *testing.T) {
	ts := newTestServer(t, Sink{}, WithCollectInterval(0))
	resp, err := http.Get(ts.URL + "/progress")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got map[string]StageSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("empty sink progress = %v, want {}", got)
	}
}

func TestMetricsEndpointServesRegistryAndRuntime(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("engine.iterations").Add(99)
	reg.Histogram("shuffle.run_ms", nil).Observe(3)
	ts := newTestServer(t, Sink{Metrics: reg}, WithCollectInterval(0))

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != PromContentType {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)
	for _, want := range []string{
		"engine_iterations 99",
		`shuffle_run_ms_bucket{le="5"} 1`,
		// The scrape itself triggers a runtime/metrics collection.
		"# TYPE runtime_goroutines gauge",
		"# TYPE runtime_heap_bytes gauge",
		"# TYPE runtime_gc_pause_ms histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}
}

func TestEventsSSEStream(t *testing.T) {
	log := NewLogger()
	ts := newTestServer(t, Sink{Log: log}, WithCollectInterval(0))

	resp, err := http.Get(ts.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}

	r := bufio.NewReader(resp.Body)
	// First frame is the ": stream open" comment; wait for it so the
	// subscription is definitely registered before emitting.
	line, err := r.ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(line, ":") {
		t.Fatalf("first SSE line = %q, want comment", line)
	}

	log.Event(LevelInfo, "ckpt", "epoch saved", Arg{Key: "epoch", Value: 7})

	deadline := time.After(5 * time.Second)
	lines := make(chan string, 16)
	go func() {
		for {
			l, err := r.ReadString('\n')
			if err != nil {
				close(lines)
				return
			}
			lines <- l
		}
	}()
	for {
		select {
		case l, ok := <-lines:
			if !ok {
				t.Fatal("stream closed before event arrived")
			}
			if !strings.HasPrefix(l, "data: ") {
				continue
			}
			var e Event
			if err := json.Unmarshal([]byte(strings.TrimPrefix(strings.TrimSpace(l), "data: ")), &e); err != nil {
				t.Fatalf("bad SSE payload %q: %v", l, err)
			}
			if e.Source != "ckpt" || e.Msg != "epoch saved" || e.Fields["epoch"] != 7 {
				t.Errorf("event = %+v", e)
			}
			return
		case <-deadline:
			t.Fatal("timed out waiting for SSE event")
		}
	}
}

// TestEventsOpenCommentFollowsSubscribe pins the order the SSE test
// relies on: by the time a client reads the ": stream open" comment,
// its subscription exists, and the comment's count says so.
func TestEventsOpenCommentFollowsSubscribe(t *testing.T) {
	log := NewLogger()
	ts := newTestServer(t, Sink{Log: log}, WithCollectInterval(0))
	for want := 1; want <= 2; want++ {
		resp, err := http.Get(ts.URL + "/events")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		line, err := bufio.NewReader(resp.Body).ReadString('\n')
		if err != nil {
			t.Fatal(err)
		}
		if got := log.Subscribers(); got != want || line != fmt.Sprintf(": stream open subscribers=%d\n", want) {
			t.Fatalf("stream %d opened with %q while %d subscribed", want, line, got)
		}
	}
	bare := newTestServer(t, Sink{}, WithCollectInterval(0))
	resp, err := http.Get(bare.URL + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if line, _ := bufio.NewReader(resp.Body).ReadString('\n'); line != ": stream open subscribers=0\n" {
		t.Fatalf("stream without a logger opened with %q", line)
	}
}

// TestLoggerSubscribeConcurrent hammers subscribe/emit/cancel from
// many goroutines; the -race build is the real assertion.
func TestLoggerSubscribeConcurrent(t *testing.T) {
	log := NewLogger()
	var wg sync.WaitGroup
	stop := make(chan struct{})

	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					log.Event(LevelDebug, "test", "tick", Arg{Key: "n", Value: 1})
				}
			}
		}()
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				ch, cancel := log.Subscribe(4)
				// Drain a little, cancel (sometimes twice), repeat.
				select {
				case <-ch:
				default:
				}
				cancel()
				if j%3 == 0 {
					cancel() // idempotent
				}
				// Reading a closed channel must not panic or race.
				for range ch {
				}
			}
		}()
	}
	time.Sleep(50 * time.Millisecond)
	close(stop)
	wg.Wait()
	if n := log.Subscribers(); n != 0 {
		t.Errorf("leaked %d subscribers", n)
	}
}

func TestServerStartStop(t *testing.T) {
	srv := NewServer(Sink{Metrics: NewRegistry()})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, want %q", srv.Addr(), addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz over real listener: %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	if err := srv.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
	var nilSrv *Server
	if err := nilSrv.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if nilSrv.Addr() != "" {
		t.Errorf("nil Addr = %q", nilSrv.Addr())
	}
}

func TestServeTelemetryDisabled(t *testing.T) {
	var sink Sink
	srv, err := ServeTelemetry(&sink, "")
	if err != nil || srv != nil {
		t.Fatalf("disabled ServeTelemetry = %v, %v", srv, err)
	}
	if sink.Enabled() {
		t.Error("disabled ServeTelemetry must not touch the sink")
	}
}

func TestServeTelemetryUpgradesSink(t *testing.T) {
	var sink Sink
	srv, err := ServeTelemetry(&sink, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if sink.Metrics == nil || sink.Progress == nil || sink.Log == nil {
		t.Errorf("ServeTelemetry left sink holes: %+v", sink)
	}
}
