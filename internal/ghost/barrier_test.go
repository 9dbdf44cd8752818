package ghost

import (
	"bytes"
	"context"
	"errors"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

// A fault-free run commits every round at the barrier and reuses its
// halo buffers, so its allocations are set-up only: ten times the
// rounds costs no more allocations.
func TestFaultFreeAllocsFlat(t *testing.T) {
	init := sandpile.Center(20000).Build(64, 64, nil)
	allocs := func(maxIters int) float64 {
		return testing.AllocsPerRun(3, func() {
			rep, err := New(init.Clone(), WithProcessGrid(2, 2), WithWidth(2), WithMaxIters(maxIters),
				WithObs(obs.Sink{Progress: obs.NewProgress(nil)})).Run()
			if err != nil || rep.Iterations != maxIters {
				t.Fatalf("MaxIters %d: %d iterations, err %v", maxIters, rep.Iterations, err)
			}
		})
	}
	short, long := allocs(40), allocs(400)
	if long > short+2 {
		t.Fatalf("allocations grow with rounds: %.0f at 20 rounds, %.0f at 200", short, long)
	}
}

// goroutineDump returns every goroutine's stack.
func goroutineDump() string {
	var b bytes.Buffer
	pprof.Lookup("goroutine").WriteTo(&b, 2)
	return b.String()
}

// Cancelling RunContext while ranks wait at the barrier returns
// ctx.Err() and leaves no rank goroutine behind. Rank 2 of three
// strips crashes at round 2 under a heartbeat far longer than the
// test: rank 0 then waits at the barrier and rank 1 on its link to
// rank 2, and only the cancellation can end the run.
func TestCancelWhileRanksWaitAtBarrier(t *testing.T) {
	g, _ := faultGrid(t)
	plan := &fault.Plan{Seed: 1, Crashes: []fault.Crash{{Rank: 2, Round: 2}}}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New(g, WithRanks(3), WithWidth(2), WithFaults(plan),
			WithHeartbeat(time.Hour)).RunContext(ctx)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(goroutineDump(), "(*barrier).arrive"); {
		if time.Now().After(deadline) {
			t.Fatal("no rank reached the barrier")
		}
		time.Sleep(5 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return after cancellation")
	}
	if dump := goroutineDump(); strings.Contains(dump, "(*rank2d).run") {
		t.Fatalf("rank goroutines outlived the run:\n%s", dump)
	}
}

// A rank of a dead generation holds only its own barrier: once the
// coordinator kills it, neither a rank already waiting there nor a
// straggler arriving later commits anything into the successor.
func TestDeadGenerationCannotCommit(t *testing.T) {
	st := &rounds{K: 1, maxIters: 100, ckpts: make([][][]uint32, 2)}
	dead := newBarrier(st, 2, false)
	waiting := make(chan bool)
	go func() { waiting <- dead.arrive(7) }()
	for {
		dead.mu.Lock()
		n := dead.arrived
		dead.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if !dead.kill() {
		t.Fatal("kill reported the generation already ended")
	}
	if <-waiting {
		t.Fatal("a rank waiting at a killed barrier was told to go on")
	}
	next := newBarrier(st, 2, false)
	if dead.arrive(9) {
		t.Fatal("a straggler arriving at a killed barrier was told to go on")
	}
	if st.committed != 0 || st.topples != 0 || next.arrived != 0 || next.changes != 0 {
		t.Fatalf("dead generation leaked: committed=%d topples=%d successor arrived=%d changes=%d",
			st.committed, st.topples, next.arrived, next.changes)
	}
	go next.arrive(3)
	if !next.arrive(4) || st.committed != 1 || st.topples != 7 {
		t.Fatalf("successor commit: committed=%d topples=%d", st.committed, st.topples)
	}
}

// Halo buffers alternate by round parity: the payload a rank sent in
// round r still holds round r's cells after the rank has filled and
// sent round r+1's, even when the receiver has read neither yet.
func TestHaloBuffersSurviveNextRound(t *testing.T) {
	cfg := config{procRows: 2, procCols: 1, width: 1}
	geoms, err := decompose(grid.New(8, 4), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	ge := geoms[0]
	toSouth := fault.NewLink[message](nil, 0, 1, 1)
	toNorth := fault.NewLink[message](nil, 1, 0, 1)
	r := &rank2d{geom: ge, cur: grid.New(ge.localH(), ge.localW()),
		bar: newBarrier(&rounds{}, 2, false)}
	r.sendS.link, r.recvS = toSouth, toNorth
	for round := 1; round <= 2; round++ {
		toNorth.Send(message{buf: make([]uint32, ge.K*ge.localW())}, nil) // the peer's halo
		for x := range r.cur.Row(ge.ownH - 1) {
			r.cur.Row(ge.ownH - 1)[x] = uint32(round)
		}
		if !r.exchange(round) {
			t.Fatalf("round %d: exchange failed", round)
		}
	}
	for round := 1; round <= 2; round++ {
		m, _ := toSouth.Recv(0, nil)
		for _, v := range m.buf {
			if v != uint32(round) {
				t.Fatalf("round %d's halo reads %d: its buffer was refilled before the receiver copied it", round, v)
			}
		}
	}
}
