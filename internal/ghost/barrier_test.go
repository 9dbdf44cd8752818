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

// A fault-free run commits its windows and reuses its halo buffers,
// so its allocations are set-up only: ten times the rounds costs no
// more allocations.
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

// Cancelling RunContext while a rank waits out an injected delay
// returns ctx.Err() and leaves no rank goroutine behind. Every halo of
// the two strips is delayed by an hour, so only the cancellation can
// end the run.
func TestCancelWhileRankWaitsOutDelay(t *testing.T) {
	g, _ := faultGrid(t)
	plan, err := fault.Parse("delayp=1,delay=1h")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := New(g, WithRanks(2), WithWidth(2), WithFaults(plan)).RunContext(ctx)
		done <- err
	}()
	for deadline := time.Now().Add(10 * time.Second); !strings.Contains(goroutineDump(), "internal/fault.wait("); {
		if time.Now().After(deadline) {
			t.Fatal("no rank waited out a delay")
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
	if dump := goroutineDump(); strings.Contains(dump, "(*generation).run") {
		t.Fatalf("rank goroutines outlived the run:\n%s", dump)
	}
}

// A dead generation cannot commit into its successor: once the
// coordinator has re-seeded, neither a report nor an abort of the dead
// generation counts toward the live window or makes it stale, and the
// successor's own reports still commit it.
func TestDeadGenerationCannotCommit(t *testing.T) {
	cfg := config{procRows: 2, procCols: 1, width: 1, maxIters: 100}
	geoms, err := decompose(grid.New(8, 4), &cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleetRun{cfg: cfg, g: grid.New(8, 4), geoms: geoms, ranks: make([]rankView, 2),
		gen: 2, end: 1, localWake: make(chan struct{}, 1)}
	for id := range f.ranks {
		f.serve(id, &worker{rank: id})
	}
	window := func(rank, gen, changes int) rankMsg {
		ge := geoms[rank]
		return rankMsg{rank: rank, rep: report{gen: gen, end: 1, work: []roundWork{{changes: changes}},
			cur: grid.New(ge.localH(), ge.localW())}}
	}
	for _, m := range []rankMsg{window(0, 1, 7), {rank: 1, abort: true, rep: report{gen: 1}}} {
		if done, err := f.take(m); done || err != nil {
			t.Fatalf("dead generation's message: done %v, err %v", done, err)
		}
	}
	if f.committed != 0 || f.topples != 0 || f.stale || f.ranks[0].in || f.ranks[1].in {
		t.Fatalf("dead generation leaked: committed=%d topples=%d stale=%v in=%v/%v",
			f.committed, f.topples, f.stale, f.ranks[0].in, f.ranks[1].in)
	}
	for _, m := range []rankMsg{window(0, 2, 3), window(1, 2, 4)} {
		if _, err := f.take(m); err != nil {
			t.Fatal(err)
		}
	}
	if f.committed != 1 || f.topples != 7 {
		t.Fatalf("successor commit: committed=%d topples=%d", f.committed, f.topples)
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
	toSouth := fault.NewLink[[]uint32](nil, 0, 1)
	toNorth := fault.NewLink[[]uint32](nil, 1, 0)
	w := &worker{rank: 0}
	w.b.geom, w.b.cur = ge, grid.New(ge.localH(), ge.localW())
	g := &generation{w: w, abort: make(chan struct{})}
	g.links[south] = &link{tx: toSouth, rx: toNorth}
	for round := 1; round <= 2; round++ {
		toNorth.Send(make([]uint32, ge.K*ge.localW()), nil) // the peer's halo
		for x := range w.b.cur.Row(ge.ownH - 1) {
			w.b.cur.Row(ge.ownH - 1)[x] = uint32(round)
		}
		if !g.exchange(round) {
			t.Fatalf("round %d: exchange failed", round)
		}
	}
	for round := 1; round <= 2; round++ {
		m, _ := toSouth.Recv(nil)
		for _, v := range m {
			if v != uint32(round) {
				t.Fatalf("round %d's halo reads %d: its buffer was refilled before the receiver copied it", round, v)
			}
		}
	}
}
