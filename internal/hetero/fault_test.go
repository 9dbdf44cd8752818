package hetero

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/sandpile"
)

func TestDeviceStallDegradesToCPU(t *testing.T) {
	init := sandpile.Center(20000).Build(64, 64, rand.New(rand.NewSource(5)))
	want := oracle(init)
	g := init.Clone()
	rep := New(g,
		WithTile(8, 8),
		WithCPUWorkers(2),
		WithDevice(2, 0),
		WithFaults(&fault.Plan{Seed: 1, StallIter: 3}),
	).Run()

	// Graceful degradation: same fixed point as the fault-free oracle,
	// with the device dead from iteration 3 on.
	if !g.Equal(want) {
		t.Fatalf("post-stall fixed point differs: %v", g.Diff(want, 5))
	}
	if !rep.DeviceStalled || rep.Recoveries != 1 {
		t.Fatalf("stall not reported: %+v", rep)
	}
	if rep.FinalFraction != 0 {
		t.Fatalf("device still has share %.3f after stall", rep.FinalFraction)
	}
	if rep.CPUTiles == 0 {
		t.Fatal("CPU computed nothing after reclaim")
	}
}

func TestDeviceStallBeforeFirstIteration(t *testing.T) {
	// StallIter 1 kills the device before it ever computes: the run
	// must be indistinguishable from CPU-only, except for the report.
	init := sandpile.Uniform(5).Build(32, 32, nil)
	want := oracle(init)
	g := init.Clone()
	rep := New(g,
		WithTile(8, 8),
		WithCPUWorkers(2),
		WithDevice(2, 0),
		WithFaults(&fault.Plan{Seed: 1, StallIter: 1}),
	).Run()
	if !g.Equal(want) {
		t.Fatal("wrong fixed point after immediate stall")
	}
	if rep.DeviceTiles != 0 {
		t.Fatalf("stalled-at-1 device computed %d tiles", rep.DeviceTiles)
	}
	if !rep.DeviceStalled {
		t.Fatalf("stall not reported: %+v", rep)
	}
}

func TestNoStallWithoutPlan(t *testing.T) {
	init := sandpile.Uniform(4).Build(32, 32, nil)
	g := init.Clone()
	rep := New(g, WithTile(8, 8), WithCPUWorkers(2), WithDevice(2, 0)).Run()
	if rep.DeviceStalled || rep.Recoveries != 0 {
		t.Fatalf("fault-free run reported a stall: %+v", rep)
	}
	if rep.DeviceTiles == 0 {
		t.Fatal("device computed nothing")
	}
}

func TestRunContextCancelledHetero(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	init := sandpile.Uniform(5).Build(32, 32, nil)
	g := init.Clone()
	rep, err := New(g, WithTile(8, 8), WithCPUWorkers(2)).RunContext(ctx)
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if rep.Iterations != 0 {
		t.Fatalf("cancelled-before-start run iterated %d times", rep.Iterations)
	}
}

func TestNewOptionsMatchParams(t *testing.T) {
	init := sandpile.Uniform(4).Build(32, 32, nil)
	a := init.Clone()
	repA := run(a, Params{TileH: 8, TileW: 8, CPUWorkers: 2, Adapt: true})
	b := init.Clone()
	repB := New(b, WithTile(8, 8), WithCPUWorkers(2)).Run()
	if !a.Equal(b) {
		t.Fatal("options and Params runs diverged")
	}
	if repA.Iterations != repB.Iterations || repA.Topples != repB.Topples {
		t.Fatalf("reports differ: %+v vs %+v", repA, repB)
	}
}
