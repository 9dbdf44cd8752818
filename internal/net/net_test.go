package net

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// --- frame codec ---

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xAB}, 4096)}
	for i, p := range payloads {
		if err := writeFrame(&buf, FrameApp+uint8(i), p); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	for i, p := range payloads {
		typ, got, err := readFrame(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if typ != FrameApp+uint8(i) {
			t.Fatalf("frame %d: type %d, want %d", i, typ, FrameApp+uint8(i))
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: payload %q, want %q", i, got, p)
		}
	}
}

func TestFrameCloseMarker(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, frameClose, nil); err != nil {
		t.Fatal(err)
	}
	_, _, err := readFrame(&buf)
	if !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("close marker read: %v, want ErrPeerClosed", err)
	}
}

func TestFrameTruncation(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, FrameApp, []byte("important bytes")); err != nil {
		t.Fatal(err)
	}
	whole := buf.Bytes()
	// Every proper prefix must surface as ErrTruncated, never as a
	// parse of partial data and never as a clean close.
	for cut := 0; cut < len(whole); cut++ {
		_, _, err := readFrame(bytes.NewReader(whole[:cut]))
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix %d/%d: %v, want ErrTruncated", cut, len(whole), err)
		}
	}
}

func TestFrameCorruption(t *testing.T) {
	pristine := func() []byte {
		var buf bytes.Buffer
		writeFrame(&buf, FrameApp, []byte("checksummed"))
		return buf.Bytes()
	}
	cases := []struct {
		name string
		mut  func(b []byte)
	}{
		{"magic", func(b []byte) { b[0] ^= 0xFF }},
		{"version", func(b []byte) { b[4] = 99 }},
		{"payload", func(b []byte) { b[headerLen] ^= 0x01 }},
		{"type", func(b []byte) { b[8] ^= 0x01 }}, // CRC covers the header too
		{"crc", func(b []byte) { b[len(b)-1] ^= 0x01 }},
	}
	for _, tc := range cases {
		b := pristine()
		tc.mut(b)
		_, _, err := readFrame(bytes.NewReader(b))
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s flip: %v, want ErrCorrupt", tc.name, err)
		}
	}
}

// --- transports ---

// transportsUnderTest yields each scheme with a fresh listen address.
func transportsUnderTest(t *testing.T) map[string]string {
	t.Helper()
	dir := t.TempDir()
	return map[string]string{
		"tcp":  "127.0.0.1:0",
		"unix": filepath.Join(dir, "t.sock"),
		"chan": fmt.Sprintf("test-%s", t.Name()),
	}
}

func TestTransportRoundTrip(t *testing.T) {
	for scheme, addr := range transportsUnderTest(t) {
		t.Run(scheme, func(t *testing.T) {
			tr, err := New(scheme)
			if err != nil {
				t.Fatal(err)
			}
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan error, 1)
			go func() {
				c, err := ln.Accept()
				if err != nil {
					done <- err
					return
				}
				defer c.Close()
				for {
					m, err := c.Recv(2 * time.Second)
					if err != nil {
						done <- err
						return
					}
					m.Type++ // echo with a visible transform
					if err := c.Send(m); err != nil {
						done <- err
						return
					}
				}
			}()
			c, err := tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				want := []byte(fmt.Sprintf("msg-%d", i))
				if err := c.Send(Msg{Type: FrameApp, Payload: want}); err != nil {
					t.Fatalf("send %d: %v", i, err)
				}
				m, err := c.Recv(2 * time.Second)
				if err != nil {
					t.Fatalf("recv %d: %v", i, err)
				}
				if m.Type != FrameApp+1 || !bytes.Equal(m.Payload, want) {
					t.Fatalf("echo %d: type %d payload %q", i, m.Type, m.Payload)
				}
			}
			c.Close()
			if err := <-done; !errors.Is(err, ErrPeerClosed) {
				t.Fatalf("server saw %v after client close, want ErrPeerClosed", err)
			}
		})
	}
}

// TestSockSendAllocsNothing: a socket conn assembles each frame in a
// buffer of its own, so a steady-state Send allocates nothing, and the
// frames still arrive whole.
func TestSockSendAllocsNothing(t *testing.T) {
	c, peer := unixPair(t)
	payload := []byte("steady-state payload")
	send := func() {
		if err := c.Send(Msg{Type: FrameApp, Payload: payload}); err != nil {
			t.Fatal(err)
		}
	}
	// 101 frames of ~40 bytes fit the socket's buffer unread.
	if n := testing.AllocsPerRun(100, send); n != 0 {
		t.Fatalf("Send allocates %.1f times per frame, want 0", n)
	}
	for i := 0; i < 101; i++ {
		m, err := peer.Recv(2 * time.Second)
		if err != nil || m.Type != FrameApp || !bytes.Equal(m.Payload, payload) {
			t.Fatalf("frame %d: type %d payload %q, err %v", i, m.Type, m.Payload, err)
		}
	}
}

// TestRecvIntoSteadyStateAllocsNothing: a ghost rank's halo receive
// hands its last payload back, so once the first halo has sized the
// buffer a steady stream of halos over a unix socket allocates
// nothing, and each still arrives whole. Recv, which keeps no buffer,
// allocates every frame.
func TestRecvIntoSteadyStateAllocsNothing(t *testing.T) {
	c, peer := unixPair(t)
	// A ghost/3 halo: the (generation, round) header and a 256-cell row.
	halo := make([]byte, 12+4*256)
	var buf []byte
	round := func(recv func() (Msg, error)) {
		binary.LittleEndian.PutUint64(halo[4:], binary.LittleEndian.Uint64(halo[4:])+1)
		if err := c.Send(Msg{Type: FrameApp, Payload: halo}); err != nil {
			t.Fatal(err)
		}
		m, err := recv()
		if err != nil || m.Type != FrameApp || !bytes.Equal(m.Payload, halo) {
			t.Fatalf("halo %d: type %d, %d bytes, err %v", binary.LittleEndian.Uint64(halo[4:]), m.Type, len(m.Payload), err)
		}
		buf = m.Payload
	}
	into := func() (Msg, error) { return RecvInto(peer, 0, buf) }
	round(into)
	if n := testing.AllocsPerRun(100, func() { round(into) }); n != 0 {
		t.Fatalf("a steady-state halo receive allocates %.1f times, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { round(func() (Msg, error) { return peer.Recv(0) }) }); n == 0 {
		t.Fatal("Recv allocated nothing: the check above cannot tell the paths apart")
	}
}

// unixPair returns the two ends of a fresh unix socket connection.
func unixPair(t *testing.T) (Conn, Conn) {
	t.Helper()
	tr, _ := New("unix")
	ln, err := tr.Listen(filepath.Join(t.TempDir(), "s.sock"))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	peer, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	// The peer first: its close fails a Send still blocked on it.
	t.Cleanup(func() { peer.Close(); c.Close() })
	return c, peer
}

// TestSockConcurrentSendsArriveWhole: senders on several goroutines
// share the conn's frame buffer, and every frame still arrives whole.
func TestSockConcurrentSendsArriveWhole(t *testing.T) {
	c, peer := unixPair(t)
	const senders, frames = 4, 200
	errs := make(chan error, senders)
	for g := range senders {
		go func() {
			for i := range frames {
				// Sizes vary so the shared buffer both grows and is reused.
				p := bytes.Repeat([]byte{byte(g)}, 1+(i*37)%3000)
				if err := c.Send(Msg{Type: FrameApp + uint8(g), Payload: p}); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}()
	}
	for i := 0; i < senders*frames; i++ {
		m, err := peer.Recv(5 * time.Second)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		g := m.Type - FrameApp
		if g >= senders || len(m.Payload) == 0 || !bytes.Equal(m.Payload, bytes.Repeat([]byte{g}, len(m.Payload))) {
			t.Fatalf("frame %d of type %d carries another sender's bytes", i, m.Type)
		}
	}
	for range senders {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestSockCloseUnblocksSend: Close returns, and fails a Send blocked on
// a peer that reads nothing, instead of waiting for it forever.
func TestSockCloseUnblocksSend(t *testing.T) {
	c, _ := unixPair(t)
	sent := make(chan error, 1)
	go func() { sent <- c.Send(Msg{Type: FrameApp, Payload: make([]byte, 8<<20)}) }()
	time.Sleep(50 * time.Millisecond) // let the Send fill the socket's buffer
	closed := make(chan struct{})
	go func() { c.Close(); close(closed) }()
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close waited on a Send to a peer that does not read")
	}
	if err := <-sent; err == nil {
		t.Fatal("a Send cut off by Close reported success")
	}
}

func TestTransportRecvTimeout(t *testing.T) {
	for scheme, addr := range transportsUnderTest(t) {
		t.Run(scheme, func(t *testing.T) {
			tr, _ := New(scheme)
			ln, err := tr.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			go ln.Accept()
			c, err := tr.Dial(ln.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			start := time.Now()
			_, err = c.Recv(50 * time.Millisecond)
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("Recv: %v, want ErrTimeout", err)
			}
			if time.Since(start) > 2*time.Second {
				t.Fatalf("timeout took %v", time.Since(start))
			}
			// The connection survives a timeout.
			if err := c.Send(Msg{Type: FrameApp}); err != nil {
				t.Fatalf("send after timeout: %v", err)
			}
		})
	}
}

func TestChanCloseDeliversBuffered(t *testing.T) {
	tr, _ := New("chan")
	ln, err := tr.Listen("buffered-close")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, _ := ln.Accept()
		accepted <- c
	}()
	c, err := tr.Dial(ln.Addr())
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	// Queue a message, then close: the reader must still get the
	// message before seeing ErrPeerClosed — mirroring a socket that
	// delivers bytes queued ahead of the close marker.
	if err := c.Send(Msg{Type: FrameApp, Payload: []byte("last words")}); err != nil {
		t.Fatal(err)
	}
	c.Close()
	m, err := srv.Recv(time.Second)
	if err != nil || string(m.Payload) != "last words" {
		t.Fatalf("buffered recv: %q, %v", m.Payload, err)
	}
	if _, err := srv.Recv(time.Second); !errors.Is(err, ErrPeerClosed) {
		t.Fatalf("post-close recv: %v, want ErrPeerClosed", err)
	}
}

// --- backoff ---

func TestBackoffDeterministicAndCapped(t *testing.T) {
	b := Backoff{Base: 50 * time.Millisecond, Max: 5 * time.Second, Seed: 7}
	for attempt := 1; attempt <= 12; attempt++ {
		d1 := b.Delay("dial:3", attempt)
		d2 := b.Delay("dial:3", attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: nondeterministic delay %v vs %v", attempt, d1, d2)
		}
		envelope := 50 * time.Millisecond << min(attempt-1, 30)
		if envelope > b.Max {
			envelope = b.Max
		}
		if d1 < envelope/2 || d1 >= envelope {
			t.Fatalf("attempt %d: delay %v outside [%v, %v)", attempt, d1, envelope/2, envelope)
		}
	}
	if d := b.Delay("dial:3", 40); d >= b.Max {
		t.Fatalf("capped delay %v not under max %v", d, b.Max)
	}
}

func TestBackoffJitterSpreadsPeers(t *testing.T) {
	b := Backoff{Base: time.Second, Max: time.Minute}
	seen := map[time.Duration]bool{}
	for rank := 0; rank < 16; rank++ {
		seen[b.Delay(fmt.Sprintf("dial:%d", rank), 3)] = true
	}
	if len(seen) < 12 {
		t.Fatalf("16 peers share %d distinct delays; jitter is not spreading", len(seen))
	}
}

func TestBackoffZeroValue(t *testing.T) {
	var b Backoff
	if d := b.Delay("x", 1); d < 25*time.Millisecond || d >= 50*time.Millisecond {
		t.Fatalf("zero-value first delay %v outside [25ms, 50ms)", d)
	}
}

// --- fleet: coordinator + worker over the chan transport ---

// echoWorker runs a RunWorker that answers every app frame by echoing
// the payload at type+1, stopping on FrameApp+7.
func echoWorker(ctx context.Context, tr Transport, addr string, rank int) error {
	return RunWorker(ctx, WorkerConfig{
		Transport: tr, Join: addr, Rank: rank, Proto: "test/1",
		Backoff: Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
	}, func(m Msg, send func(Msg) error) error {
		if m.Type == FrameApp+7 {
			return ErrWorkerDone
		}
		return send(Msg{Type: m.Type + 1, Payload: m.Payload})
	})
}

func TestFleetRegisterAndEcho(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-echo", Workers: 2, Proto: "test/1",
		Lease: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for r := 0; r < 2; r++ {
		go echoWorker(ctx, tr, co.Addr(), r)
	}
	joined := 0
	for joined < 2 {
		ev := waitEvent(t, co)
		if ev.Kind != PeerJoined {
			t.Fatalf("unexpected event before joins: %+v", ev)
		}
		if ev.Rejoin {
			t.Fatalf("first join of rank %d flagged as rejoin", ev.Rank)
		}
		joined++
	}
	for r := 0; r < 2; r++ {
		if err := co.Send(r, Msg{Type: FrameApp, Payload: []byte("ping")}); err != nil {
			t.Fatalf("send to %d: %v", r, err)
		}
	}
	got := 0
	for got < 2 {
		ev := waitEvent(t, co)
		if ev.Kind != PeerMsg {
			continue
		}
		if ev.Msg.Type != FrameApp+1 || string(ev.Msg.Payload) != "ping" {
			t.Fatalf("echo from %d: type %d payload %q", ev.Rank, ev.Msg.Type, ev.Msg.Payload)
		}
		got++
	}
	st := co.Stats()
	if st.Sent != 2 || st.Received != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestFleetLeaseExpiryAndRejoin(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-lease", Workers: 1, Proto: "test/1",
		Lease: 120 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	// A raw client that registers but never heartbeats: the lease must
	// expire it.
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if err := conn.Send(Msg{Type: frameHello, Payload: helloPayload("test/1", 0, "")}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, co); ev.Kind != PeerJoined {
		t.Fatalf("want join, got %+v", ev)
	}
	if ev := waitEvent(t, co); ev.Kind != PeerDead {
		t.Fatalf("want lease death, got %+v", ev)
	}
	if st := co.Stats(); st.LeaseExpired == 0 {
		t.Fatalf("lease expiry not counted: %+v", st)
	}
	conn.Close()

	// A real worker now rejoins the same rank; the join must carry the
	// rejoin flag.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go echoWorker(ctx, tr, co.Addr(), 0)
	ev := waitEvent(t, co)
	if ev.Kind != PeerJoined || !ev.Rejoin {
		t.Fatalf("want rejoin, got %+v", ev)
	}
	if err := co.Send(0, Msg{Type: FrameApp, Payload: []byte("alive?")}); err != nil {
		t.Fatal(err)
	}
	for {
		ev := waitEvent(t, co)
		if ev.Kind == PeerMsg {
			if string(ev.Msg.Payload) != "alive?" {
				t.Fatalf("echo payload %q", ev.Msg.Payload)
			}
			break
		}
	}
}

// TestFleetDeathCauseLogged: the "worker dead" log event names why
// the worker died in its "cause" field — a closed connection first,
// then a rejoined worker that stays silent past its lease.
func TestFleetDeathCauseLogged(t *testing.T) {
	tr, _ := New("chan")
	log := obs.NewLogger()
	// A full subscriber drops events: leave room for every event the
	// two deaths log.
	events, cancel := log.Subscribe(64)
	defer cancel()
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-cause", Workers: 1, Proto: "test/1",
		Lease: 150 * time.Millisecond, Obs: obs.Sink{Log: log},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for _, want := range []deathCause{causeConnBroke, causeLeaseExpired} {
		conn, err := tr.Dial(co.Addr())
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send(Msg{Type: frameHello, Payload: helloPayload("test/1", 0, "")}); err != nil {
			t.Fatal(err)
		}
		if ev := waitEvent(t, co); ev.Kind != PeerJoined {
			t.Fatalf("want join, got %+v", ev)
		}
		if want == causeConnBroke {
			conn.Close()
		}
		if ev := waitEvent(t, co); ev.Kind != PeerDead {
			t.Fatalf("want death by %q, got %+v", want, ev)
		}
		for got := false; !got; {
			select {
			case e := <-events:
				if e.Msg != "worker dead" {
					continue
				}
				cause, ok := e.Fields["cause"]
				if !ok || deathCause(cause) != want {
					t.Fatalf("worker dead fields %v: cause %q, want %q", e.Fields, deathCause(cause), want)
				}
				got = true
			case <-time.After(10 * time.Second):
				t.Fatalf("no worker dead event for %q within 10s", want)
			}
		}
	}
}

func TestFleetSupervisorRespawnsAndGivesUp(t *testing.T) {
	tr, _ := New("chan")
	var launches atomic.Int64
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Rank 0's spawn starts a real worker; rank 1's spawn is a no-op,
	// so after MaxRespawns join timeouts the rank must be declared lost.
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-spawn", Workers: 2, Proto: "test/1",
		Lease: 150 * time.Millisecond, JoinTimeout: 100 * time.Millisecond,
		MaxRespawns: 3,
		Backoff:     Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			launches.Add(1)
			if rank == 0 {
				go echoWorker(ctx, tr, addr, 0)
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()

	sawJoin, sawLost := false, false
	deadline := time.After(10 * time.Second)
	for !(sawJoin && sawLost) {
		select {
		case ev := <-co.Events():
			switch {
			case ev.Kind == PeerJoined && ev.Rank == 0:
				sawJoin = true
			case ev.Kind == PeerLost && ev.Rank == 1:
				sawLost = true
			case ev.Kind == PeerLost && ev.Rank == 0:
				t.Fatal("healthy rank 0 declared lost")
			}
		case <-deadline:
			t.Fatalf("timeout; join=%v lost=%v after %d launches", sawJoin, sawLost, launches.Load())
		}
	}
	if st := co.Stats(); st.Lost != 1 {
		t.Fatalf("stats lost=%d, want 1", st.Lost)
	}
	// Late hellos from a lost rank are rejected: lost is sticky.
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Send(Msg{Type: frameHello, Payload: helloPayload("test/1", 1, "")})
	if _, err := conn.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("lost rank received a welcome")
	}
	conn.Close()
}

// TestFleetStopRetiresWithoutRespawn: workers that exit cleanly on the
// stop message are retiring, not dead — no PeerDead, no death count,
// and no Spawn, even after a full lease has passed.
func TestFleetStopRetiresWithoutRespawn(t *testing.T) {
	tr, _ := New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var launches atomic.Int64
	exited := make(chan error, 4)
	m := obs.NewRegistry()
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-stop", Workers: 2, Proto: "test/1",
		Lease:   100 * time.Millisecond,
		Backoff: Backoff{Base: time.Millisecond, Max: 5 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			launches.Add(1)
			go func() { exited <- echoWorker(ctx, tr, addr, rank) }()
			return nil
		},
		Obs: obs.Sink{Metrics: m},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	for joined := 0; joined < 2; {
		if ev := waitEvent(t, co); ev.Kind == PeerJoined {
			joined++
		}
	}
	spawned := launches.Load()
	co.Stop(Msg{Type: FrameApp + 7})
	for range 2 {
		select {
		case err := <-exited:
			if err != nil {
				t.Fatalf("worker exit: %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("workers did not exit on stop")
		}
	}
	time.Sleep(3 * 100 * time.Millisecond) // a lease check or three
	select {
	case ev := <-co.Events():
		t.Fatalf("event after Stop: %+v", ev)
	default:
	}
	if got := launches.Load(); got != spawned {
		t.Fatalf("Spawn called %d times after Stop", got-spawned)
	}
	if st := co.Stats(); st.Deaths != 0 {
		t.Fatalf("clean exits counted as deaths: %+v", st)
	}
	if d := m.Counter("net.deaths").Value(); d != 0 {
		t.Fatalf("net.deaths = %d after Stop", d)
	}
}

func TestFleetWorkerSurvivesCoordinatorRestart(t *testing.T) {
	tr, _ := New("chan")
	mk := func() *Coordinator {
		co, err := NewCoordinator(FleetConfig{
			Transport: tr, Listen: "fleet-restart", Workers: 1, Proto: "test/1",
			Lease: 100 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return co
	}
	co := mk()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	workerErr := make(chan error, 1)
	go func() { workerErr <- echoWorker(ctx, tr, co.Addr(), 0) }()
	if ev := waitEvent(t, co); ev.Kind != PeerJoined {
		t.Fatalf("want join, got %+v", ev)
	}
	co.Close() // coordinator dies; worker must redial with backoff
	co = mk()
	defer co.Close()
	if ev := waitEvent(t, co); ev.Kind != PeerJoined {
		t.Fatalf("want join on the new coordinator, got %+v", ev)
	}
	// The worker is functional on the new incarnation; then stop it.
	if err := co.Send(0, Msg{Type: FrameApp + 7}); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-workerErr:
		if err != nil {
			t.Fatalf("worker exit: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not stop")
	}
}

func TestWorkerGivesUpWithoutCoordinator(t *testing.T) {
	tr, _ := New("chan")
	err := RunWorker(context.Background(), WorkerConfig{
		Transport: tr, Join: "nobody-home", Rank: 0, Proto: "test/1",
		Backoff:         Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxDialAttempts: 3,
	}, func(m Msg, send func(Msg) error) error { return nil })
	if err == nil {
		t.Fatal("worker returned nil with no coordinator")
	}
}

func TestHelloRejectsWrongProto(t *testing.T) {
	tr, _ := New("chan")
	co, err := NewCoordinator(FleetConfig{
		Transport: tr, Listen: "fleet-proto", Workers: 1, Proto: "test/1",
		Lease: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	conn, err := tr.Dial(co.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var e ckpt.Enc
	e.Str("other/9")
	e.I64(0)
	e.I64(1234)
	conn.Send(Msg{Type: frameHello, Payload: e.Bytes()})
	if _, err := conn.Recv(300 * time.Millisecond); err == nil {
		t.Fatal("wrong-proto hello received a welcome")
	}
}

// TestWorkerServesFramesThatOvertookWelcome: the coordinator installs a
// conn before it sends the welcome, so a heartbeat and a task can reach
// the worker first. The worker must keep the task, take the welcome,
// and serve the task — not end its session.
func TestWorkerServesFramesThatOvertookWelcome(t *testing.T) {
	tr, _ := New("chan")
	ln, err := tr.Listen("early-frames")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan error, 1)
	go func() { done <- echoWorker(context.Background(), tr, ln.Addr(), 0) }()
	conn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if m, err := conn.Recv(time.Second); err != nil || m.Type != frameHello {
		t.Fatalf("hello: type %d, err %v", m.Type, err)
	}
	var welcome ckpt.Enc
	welcome.I64(1000)
	for _, m := range []Msg{
		{Type: frameHeartbeat},
		{Type: FrameApp, Payload: []byte("early")},
		{Type: frameWelcome, Payload: welcome.Bytes()},
		{Type: FrameApp + 2, Payload: []byte("late")},
		{Type: FrameApp + 7},
	} {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []Msg{{Type: FrameApp + 1, Payload: []byte("early")}, {Type: FrameApp + 3, Payload: []byte("late")}} {
		m, err := conn.Recv(time.Second)
		for err == nil && m.Type == frameHeartbeat {
			m, err = conn.Recv(time.Second)
		}
		if err != nil || m.Type != want.Type || !bytes.Equal(m.Payload, want.Payload) {
			t.Fatalf("reply: type %d payload %q err %v, want type %d payload %q", m.Type, m.Payload, err, want.Type, want.Payload)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
}

func waitEvent(t *testing.T, co *Coordinator) Event {
	t.Helper()
	select {
	case ev := <-co.Events():
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("no fleet event within 10s")
		return Event{}
	}
}
