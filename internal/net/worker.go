package net

// worker.go is the worker half of the fleet protocol: dial the
// coordinator, register, adopt the lease the welcome carries, then
// pump frames into a handler while a background goroutine heartbeats.
// Any connection failure — dial refused, lease severed, coordinator
// restarting — feeds one reconnection loop with capped, deterministic
// backoff; only a handler error or the coordinator's clean shutdown
// ends the worker.

import (
	"context"
	"errors"
	"fmt"
	"time"

	"repro/internal/ckpt"
	"repro/internal/obs"
)

// WorkerConfig configures RunWorker.
type WorkerConfig struct {
	Transport Transport
	// Join is the coordinator's address.
	Join string
	Rank int
	// Proto must match the coordinator's FleetConfig.Proto.
	Proto string
	// Addr is where the worker's peers can reach it (see PeerListen),
	// announced in its hello and delivered with PeerJoined; "" for a
	// worker that only talks to the coordinator.
	Addr string
	// Backoff paces reconnection attempts; the zero value means 50ms
	// base, 5s cap.
	Backoff Backoff
	// MaxDialAttempts caps consecutive failed connection attempts
	// before the worker gives up (default 10). A completed session
	// resets the count.
	MaxDialAttempts int
	Obs             obs.Sink
}

// Handler processes one application frame. send delivers frames back
// to the coordinator on the same connection. Returning an error stops
// the worker; returning ErrWorkerDone stops it cleanly.
type Handler func(m Msg, send func(Msg) error) error

// ErrWorkerDone is the sentinel a Handler returns to stop the worker
// without error — typically on the protocol's stop message.
var ErrWorkerDone = errors.New("net: worker done")

// RunWorker joins the fleet at cfg.Join and serves frames to h until
// the handler finishes, the context is cancelled, or the coordinator
// stays unreachable past MaxDialAttempts. It reconnects through
// crashes on either side; after a rejoin the coordinator re-sends
// whatever the rank needs, so the handler just keeps handling.
func RunWorker(ctx context.Context, cfg WorkerConfig, h Handler) error {
	if cfg.Transport == nil {
		return fmt.Errorf("net: worker needs a transport")
	}
	if cfg.MaxDialAttempts <= 0 {
		cfg.MaxDialAttempts = 10
	}
	fails := 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := runSession(ctx, cfg, h)
		switch {
		case err == nil || errors.Is(err, ErrWorkerDone):
			return nil
		case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
			return err
		case errors.Is(err, errSessionLive):
			// The connection served traffic before breaking: the
			// coordinator is alive, so the streak resets.
			fails = 0
		default:
			if fatal := (&fatalErr{}); errors.As(err, &fatal) {
				return fatal.err
			}
			fails++
			if fails > cfg.MaxDialAttempts {
				return fmt.Errorf("net: rank %d: coordinator unreachable after %d attempts: %w",
					cfg.Rank, fails-1, err)
			}
		}
		delay := cfg.Backoff.Delay(fmt.Sprintf("dial:%d", cfg.Rank), max(fails, 1))
		cfg.Obs.Log.Event(obs.LevelInfo, "net", "worker reconnecting",
			obs.Arg{Key: "rank", Value: int64(cfg.Rank)},
			obs.Arg{Key: "attempt", Value: int64(fails)},
			obs.Arg{Key: "delay_ms", Value: int64(delay / time.Millisecond)})
		if m := cfg.Obs.Metrics; m != nil {
			m.Counter("net.reconnects").Inc()
		}
		select {
		case <-time.After(delay):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// errSessionLive tags a session that got past registration before its
// connection broke — a reconnect case, not a dial-failure case.
var errSessionLive = errors.New("net: session broke after registration")

// fatalErr tags a handler failure so the reconnect loop propagates it
// instead of retrying.
type fatalErr struct{ err error }

func (f *fatalErr) Error() string { return f.err.Error() }
func (f *fatalErr) Unwrap() error { return f.err }

// runSession runs one connection lifetime: dial, hello/welcome, then
// the frame pump with background heartbeats.
func runSession(ctx context.Context, cfg WorkerConfig, h Handler) error {
	conn, err := cfg.Transport.Dial(cfg.Join)
	if err != nil {
		return err
	}
	defer conn.Close()
	if err := conn.Send(Msg{Type: frameHello, Payload: helloPayload(cfg.Proto, cfg.Rank, cfg.Addr)}); err != nil {
		return fmt.Errorf("net: hello: %w", err)
	}
	// The coordinator installs a conn before its welcome is out, so a
	// heartbeat or a task may overtake the welcome: tasks are kept and
	// served once it has arrived.
	var early []Msg
	m, err := conn.Recv(dialTimeout)
	for n := 0; err == nil && m.Type != frameWelcome && n < maxEarlyFrames; n++ {
		if m.Type >= FrameApp {
			early = append(early, m)
		}
		m, err = conn.Recv(dialTimeout)
	}
	if err != nil {
		return fmt.Errorf("net: awaiting welcome: %w", err)
	}
	if m.Type != frameWelcome {
		return fmt.Errorf("net: expected welcome, got frame type %d", m.Type)
	}
	dec := ckpt.NewDec(m.Payload)
	lease := time.Duration(dec.I64()) * time.Millisecond
	if dec.Err() != nil || lease <= 0 {
		return fmt.Errorf("net: malformed welcome")
	}

	// From here on the session is live: failures mean reconnect, not
	// give-up.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		tick := time.NewTicker(lease / 3)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-ctx.Done():
				conn.Close() // unblock the Recv below
				return
			case <-tick.C:
				if conn.Send(Msg{Type: frameHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	send := func(out Msg) error { return conn.Send(out) }
	serve := func(m Msg) error {
		if err := h(m, send); err != nil {
			if errors.Is(err, ErrWorkerDone) {
				return ErrWorkerDone
			}
			return &fatalErr{err: err}
		}
		return nil
	}
	for _, m := range early {
		if err := serve(m); err != nil {
			return err
		}
	}
	// The coordinator heartbeats too, so a healthy conn is never idle
	// longer than a lease; 3x is a generous symmetric timeout.
	idle := 3 * lease
	for {
		m, err := conn.Recv(idle)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("%w: %w", errSessionLive, err)
		}
		if m.Type < FrameApp {
			continue // heartbeat or future control traffic
		}
		if err := serve(m); err != nil {
			return err
		}
	}
}

// maxEarlyFrames bounds the frames a worker takes before its welcome:
// the coordinator sends at most a heartbeat and a task or two in that
// window, so more means the peer is not a coordinator.
const maxEarlyFrames = 64
