package mapreduce

// dispatch.go is the one task dispatcher every run path shares: Run,
// RunSpeculative, RunStreamingPipeline and RunFleet hand their map and
// reduce tasks to one loop, and only the place an attempt runs
// differs. The goroutine executor runs attempts in this process under
// Config.Parallelism slots; the fleet-rank executor (fleet.go) ships
// one frame per attempt to an idle worker, and once every rank is lost
// the rest of the phase runs on goroutines. The loop alone owns each
// task's state, so retries, backoff, speculative backups, worker
// deaths and cancellation are each decided in one place.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	pnet "repro/internal/net"
	"repro/internal/obs"
)

// attempt is one dispatch of a task: its 1-based attempt number, and
// copy 0 for the original or 1 for a speculative backup, a second copy
// of the running attempt.
type attempt struct{ task, n, copy int }

// idle marks a fleet rank with no attempt in flight.
var idle = attempt{task: -1}

// outcome is a finished copy reported to the loop.
type outcome[R any] struct {
	attempt
	res R
	err error
}

type taskState struct {
	n        int // current attempt number
	running  int // copies in flight
	backedUp bool
	done     bool
}

// dispatcher runs tasks [0, n) to completion. run executes an attempt
// on the goroutine executor and decode turns a fleet reply into the
// same result; done receives each task's first success, on the loop,
// and a late duplicate is dropped. A failed attempt is re-queued after
// backoffDelay keyed "kind:task", up to maxAttempts, and then fails
// the phase. Cancelling ctx skips queued tasks; the first error wins.
type dispatcher[R any] struct {
	ctx         context.Context
	kind        string // "map" or "reduce"
	slots       int    // goroutine-executor parallelism
	maxAttempts int
	backoff     time.Duration
	seed        int64
	speculate   time.Duration // back a task up after this long; 0 never
	run         func(a attempt) (R, error)
	decode      func(task int, payload []byte) (R, error)
	done        func(a attempt, res R) error
	fleet       *fleetExec // nil: goroutines only

	tasks     []taskState
	queue     []int
	results   chan outcome[R]
	wakes     chan attempt // a backoff ended, or a backup is due
	quit      chan struct{}
	busy      int // goroutine slots held by original copies
	inflight  int // goroutine copies running
	remaining int
	retries   int // re-dispatches: failed attempts and lost fleet copies
	backups   int
	wins      int // tasks a backup finished first
	err       error
}

// newDispatcher sets a phase of n tasks up from the job's config.
// Reduce tasks get one attempt: their retries are per group, inside
// the task.
func newDispatcher[R any, K cmp.Ordered](ctx context.Context, kind string, n int, cfg Config[K],
	run func(attempt) (R, error), done func(attempt, R) error) *dispatcher[R] {
	d := &dispatcher[R]{ctx: ctx, kind: kind, slots: cfg.Parallelism, maxAttempts: 1,
		backoff: cfg.RetryBackoff, seed: retrySeed(cfg), run: run, done: done,
		tasks: make([]taskState, n), remaining: n}
	if kind == "map" {
		d.maxAttempts = cfg.MaxAttempts
	}
	for t := range d.tasks {
		d.tasks[t].n = 1
		d.queue = append(d.queue, t)
	}
	return d
}

// dispatch runs the phase and returns its retry count and first error.
// After an error it waits for its goroutine copies; on success a
// straggling duplicate of a finished task is not waited for.
func (d *dispatcher[R]) dispatch() (int, error) {
	// One slot per task lets a finishing copy hand its result over and
	// exit while the loop is busy in done.
	d.results, d.wakes, d.quit = make(chan outcome[R], len(d.tasks)), make(chan attempt), make(chan struct{})
	defer close(d.quit) // stragglers and pending timers stop reporting
	var events <-chan pnet.Event
	if d.fleet != nil {
		for r := range d.fleet.ranks {
			d.fleet.ranks[r] = idle
		}
		events = d.fleet.co.Events()
	}
	ctxDone := d.ctx.Done()
	for {
		if d.err == nil && d.ctx.Err() != nil {
			d.fail(d.ctx.Err())
		}
		for d.err == nil && len(d.queue) > 0 && d.start(attempt{task: d.queue[0], n: d.tasks[d.queue[0]].n}) {
			d.queue = d.queue[1:]
		}
		if d.remaining == 0 || (d.err != nil && d.inflight == 0) {
			return d.retries, d.err
		}
		select {
		case o := <-d.results:
			d.inflight--
			if o.copy == 0 {
				d.busy--
			}
			d.tasks[o.task].running--
			d.settle(o)
		case a := <-d.wakes:
			st := &d.tasks[a.task]
			switch {
			case d.err != nil || st.done:
			case a.copy == 0: // its backoff ended
				d.queue = append(d.queue, a.task)
			case st.n == a.n && st.running > 0 && !st.backedUp && d.start(a):
				st.backedUp = true
				d.backups++
			}
		case ev, ok := <-events:
			if ok {
				d.fleetEvent(ev)
			} else {
				events = nil
				d.fail(errors.New("mapreduce: fleet coordinator closed"))
			}
		case <-ctxDone:
			ctxDone = nil
		}
	}
}

// after delivers a to the loop once delay has passed.
func (d *dispatcher[R]) after(delay time.Duration, a attempt) {
	time.AfterFunc(delay, func() {
		select {
		case d.wakes <- a:
		case <-d.quit:
		}
	})
}

// start dispatches a on the fleet, or on a goroutine once the fleet is
// gone, and reports whether an executor took it. An original copy
// holds a goroutine slot until it finishes; a backup never waits for
// one, since its straggling original holds one.
func (d *dispatcher[R]) start(a attempt) bool {
	if d.fleet != nil && !d.fleet.allLost() {
		if !d.fleet.send(a) {
			return false
		}
	} else {
		if a.copy == 0 && d.busy >= d.slots {
			return false
		}
		if a.copy == 0 {
			d.busy++
		}
		d.inflight++
		go func() {
			res, err := d.run(a)
			select {
			case d.results <- outcome[R]{attempt: a, res: res, err: err}:
			case <-d.quit:
			}
		}()
	}
	if d.speculate > 0 && a.copy == 0 {
		d.after(d.speculate, attempt{task: a.task, n: a.n, copy: 1})
	}
	d.tasks[a.task].running++
	return true
}

// settle applies a finished copy: the first success completes the
// task, and a failure with no copy left running retries or fails it.
func (d *dispatcher[R]) settle(o outcome[R]) {
	st := &d.tasks[o.task]
	switch {
	case st.done: // a late duplicate
	case o.err == nil:
		st.done = true
		d.remaining--
		d.wins += o.copy
		if d.err == nil {
			if err := d.done(o.attempt, o.res); err != nil {
				d.fail(err)
			}
		}
	case st.running > 0 || d.err != nil: // the copy still running decides
	case st.n >= d.maxAttempts:
		if d.kind == "map" {
			o.err = fmt.Errorf("mapreduce: map task %d: %w", o.task, o.err)
		}
		d.fail(o.err)
	default:
		d.after(backoffDelay(d.backoff, d.seed, fmt.Sprintf("%s:%d", d.kind, o.task), st.n), attempt{task: o.task})
		st.n++
		d.retries++
	}
}

// fail records the phase's first error and drops queued work. Copies
// on fleet ranks are not waited for: the coordinator closes under them.
func (d *dispatcher[R]) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.queue = nil
}

// release takes back a rank's in-flight attempt: its worker died or
// came back without it. The task is queued again under the same
// attempt number, and the re-dispatch counts as a retry.
func (d *dispatcher[R]) release(rank int) {
	a := d.fleet.ranks[rank]
	if a.task < 0 {
		return
	}
	d.fleet.ranks[rank] = idle
	st := &d.tasks[a.task]
	st.running--
	if d.err == nil && !st.done && st.running == 0 {
		d.queue = append(d.queue, a.task)
		d.retries++
	}
}

// fleetEvent applies one coordinator event to the phase.
func (d *dispatcher[R]) fleetEvent(ev pnet.Event) {
	f := d.fleet
	switch ev.Kind {
	case pnet.PeerJoined:
		if ev.Rejoin { // the rank's last process took its attempt with it
			d.release(ev.Rank)
		}
	case pnet.PeerDead:
		d.release(ev.Rank)
		f.sink.Log.Event(obs.LevelWarn, "mapreduce", "fleet worker died",
			obs.Arg{Key: "rank", Value: int64(ev.Rank)})
	case pnet.PeerLost:
		f.lost[ev.Rank] = true
		d.release(ev.Rank)
		if f.allLost() {
			f.sink.Log.Event(obs.LevelError, "mapreduce", "all fleet workers lost; finishing inline",
				obs.Arg{Key: "remaining", Value: int64(d.remaining)})
		}
	case pnet.PeerMsg:
		p, o := ev.Msg.Payload, outcome[R]{attempt: f.ranks[ev.Rank]}
		if (ev.Msg.Type != f.doneType && ev.Msg.Type != mrFailed) || len(p) < 4 ||
			o.task != int(binary.LittleEndian.Uint32(p)) {
			return // not this phase's, or from a copy already written off
		}
		f.ranks[ev.Rank] = idle
		d.tasks[o.task].running--
		if ev.Msg.Type == mrFailed {
			o.err = taskError(p[4:])
		} else if o.res, o.err = d.decode(o.task, p[4:]); o.err != nil {
			d.fail(o.err)
			return
		}
		d.settle(o)
	}
}
