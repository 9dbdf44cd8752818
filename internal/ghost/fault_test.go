package ghost

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/sandpile"
)

// testHB is a short heartbeat so injected-crash recovery doesn't
// stall the suite; compute per round on these grids is far below the
// derived link timeout (testHB/4).
const testHB = 300 * time.Millisecond

func faultGrid(t *testing.T) (*grid.Grid, *grid.Grid) {
	t.Helper()
	g := grid.New(48, 40)
	for y := 0; y < 48; y++ {
		for x := 0; x < 40; x++ {
			g.Set(y, x, uint32((y*31+x*17)%9))
		}
	}
	g.Set(24, 20, 5000)
	want := g.Clone()
	sandpile.StabilizeAsyncSeq(want)
	return g, want
}

func TestCrashRecoveryConvergesToFaultFreeFixedPoint(t *testing.T) {
	g, want := faultGrid(t)
	// Fault-free reference run for the committed-work accounting.
	ref := g.Clone()
	refRep, err := New(ref, WithRanks(4), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}

	// 2 of 4 ranks crash (the acceptance bound: <= N/2).
	plan := &fault.Plan{Seed: 11, Crashes: []fault.Crash{{Rank: 1, Round: 2}, {Rank: 3, Round: 4}}}
	rep, err := New(g, WithRanks(4), WithWidth(2), WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("post-recovery grid differs from the fault-free fixed point")
	}
	if rep.Recoveries == 0 {
		t.Fatal("expected at least one coordinated recovery")
	}
	if rep.Topples != refRep.Topples || rep.Iterations != refRep.Iterations {
		t.Fatalf("committed work diverged: topples %d vs %d, iters %d vs %d",
			rep.Topples, refRep.Topples, rep.Iterations, refRep.Iterations)
	}
	if len(rep.FaultSchedule) == 0 {
		t.Fatal("fault schedule empty despite injected crashes")
	}
}

func TestCrashRecovery2D(t *testing.T) {
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 5, Crashes: []fault.Crash{{Rank: 0, Round: 2}, {Rank: 3, Round: 3}}}
	rep, err := New(g, WithProcessGrid(2, 2), WithWidth(2),
		WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("2D post-recovery grid differs from the fault-free fixed point")
	}
	if rep.Recoveries == 0 {
		t.Fatal("expected at least one coordinated recovery")
	}
}

func TestMessageFaultsAreTransparent(t *testing.T) {
	// Drop/dup/delay at aggressive rates: the link's retransmit +
	// dedupe machinery must make them invisible to the computation.
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 3, Drop: 0.15, Dup: 0.1, DelayProb: 0.2, Delay: time.Millisecond}
	rep, err := New(g, WithRanks(4), WithWidth(2), WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("grid differs from fixed point under message faults")
	}
	if rep.Recoveries != 0 {
		t.Fatalf("message faults triggered %d rollbacks; links should absorb them", rep.Recoveries)
	}
	if len(rep.FaultSchedule) == 0 {
		t.Fatal("no message faults fired at these rates")
	}
}

func TestMessageFaults2D(t *testing.T) {
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 9, Drop: 0.1, Dup: 0.1}
	if _, err := New(g, WithProcessGrid(2, 2), WithWidth(2),
		WithFaults(plan), WithHeartbeat(testHB)).Run(); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("2D grid differs from fixed point under message faults")
	}
}

func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() ([]string, *grid.Grid, Report) {
		g, _ := faultGrid(t)
		plan := &fault.Plan{
			Seed:    77,
			Crashes: []fault.Crash{{Rank: 2, Round: 3}},
			Drop:    0.1, Dup: 0.05,
		}
		rep, err := New(g, WithRanks(4), WithWidth(2), WithFaults(plan), WithHeartbeat(testHB)).Run()
		if err != nil {
			t.Fatal(err)
		}
		return rep.FaultSchedule, g, rep
	}
	sched1, g1, rep1 := run()
	sched2, g2, rep2 := run()
	if !reflect.DeepEqual(sched1, sched2) {
		t.Fatalf("same seed produced different fault schedules:\n%v\n%v", sched1, sched2)
	}
	if !g1.Equal(g2) {
		t.Fatal("same seed produced different post-recovery grids")
	}
	if rep1.Topples != rep2.Topples {
		t.Fatalf("same seed produced different topple counts: %d vs %d", rep1.Topples, rep2.Topples)
	}
}

func TestRunContextCancelled(t *testing.T) {
	g, _ := faultGrid(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := New(g, WithRanks(4), WithWidth(2)).RunContext(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want Canceled", err)
	}
}

// Exactly N/2 ranks dying in the same round is the heartbeat's
// boundary case: half the fleet goes silent simultaneously, one
// generation timeout must catch both deaths, and a single coordinated
// rollback must restore a consistent cut for all four ranks.
func TestSimultaneousHalfFleetCrash(t *testing.T) {
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 17, Crashes: []fault.Crash{
		{Rank: 1, Round: 2}, {Rank: 3, Round: 2},
	}}
	rep, err := New(g, WithRanks(4), WithWidth(2),
		WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("post-recovery grid differs from the fault-free fixed point")
	}
	if rep.Recoveries == 0 {
		t.Fatal("expected a coordinated recovery")
	}
	if len(rep.FaultSchedule) < 2 {
		t.Fatalf("fault schedule %v, want both simultaneous crashes", rep.FaultSchedule)
	}
}

// The same boundary case on the 2-D block decomposition: two of four
// blocks die in one round.
func TestSimultaneousHalfFleetCrash2D(t *testing.T) {
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 23, Crashes: []fault.Crash{
		{Rank: 0, Round: 3}, {Rank: 2, Round: 3},
	}}
	rep, err := New(g, WithProcessGrid(2, 2), WithWidth(2),
		WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("2D post-recovery grid differs from the fault-free fixed point")
	}
	if rep.Recoveries == 0 {
		t.Fatal("expected a coordinated recovery")
	}
}

// A second crash landing in the catch-up right after a rollback: rank
// 1 dies at round 3 (rollback to the round-2 checkpoint, replay), then
// rank 2 dies at round 4 — the first post-recovery round to commit.
// Two coordinated recoveries, still the exact fault-free fixed point,
// and the durable checkpointer saving every round must stay consistent
// through both rollbacks.
func TestCrashDuringRollbackCatchUp(t *testing.T) {
	g, want := faultGrid(t)
	plan := &fault.Plan{Seed: 29, Crashes: []fault.Crash{
		{Rank: 1, Round: 3}, {Rank: 2, Round: 4},
	}}
	rep, err := New(g, WithRanks(4), WithWidth(2),
		WithFaults(plan), WithHeartbeat(testHB),
		WithCheckpoint(ghostCheckpointer(t, t.TempDir(), 1))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatal("cascaded-crash grid differs from the fault-free fixed point")
	}
	if rep.Recoveries < 2 {
		t.Fatalf("Recoveries = %d, want 2 (crash, rollback, crash during catch-up)", rep.Recoveries)
	}
}
