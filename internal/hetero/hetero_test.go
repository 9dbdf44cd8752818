package hetero

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/grid"
	"repro/internal/sandpile"
	"repro/internal/trace"
)

func oracle(g *grid.Grid) *grid.Grid {
	o := g.Clone()
	sandpile.StabilizeAsyncSeq(o)
	return o
}

func TestHybridMatchesOracle(t *testing.T) {
	for _, cfg := range []sandpile.Config{
		sandpile.Uniform(4), sandpile.Center(8000), sandpile.Sparse(0.01, 300),
	} {
		init := cfg.Build(64, 64, rand.New(rand.NewSource(2)))
		want := oracle(init)
		g := init.Clone()
		rep := run(g, Params{
			TileH: 8, TileW: 8, CPUWorkers: 2,
			Device: DeviceProfile{Workers: 2}, Adapt: true,
		})
		if !g.Equal(want) {
			t.Fatalf("%s: hybrid fixed point differs: %v", cfg.Name, g.Diff(want, 5))
		}
		if rep.DeviceTiles == 0 {
			t.Fatalf("%s: device computed nothing", cfg.Name)
		}
		if rep.CPUTiles == 0 {
			t.Fatalf("%s: CPU computed nothing", cfg.Name)
		}
	}
}

func TestCPUOnlyWhenDeviceDisabled(t *testing.T) {
	init := sandpile.Uniform(4).Build(32, 32, nil)
	want := oracle(init)
	g := init.Clone()
	rep := run(g, Params{TileH: 8, TileW: 8, CPUWorkers: 2, Device: DeviceProfile{Workers: 0}})
	if !g.Equal(want) {
		t.Fatal("CPU-only hybrid wrong fixed point")
	}
	if rep.DeviceTiles != 0 {
		t.Fatalf("disabled device computed %d tiles", rep.DeviceTiles)
	}
	if rep.CPUTiles == 0 {
		t.Fatal("CPU computed nothing")
	}
}

func TestFixedSplitNoAdaptation(t *testing.T) {
	init := sandpile.Uniform(5).Build(48, 48, nil)
	g := init.Clone()
	rep := run(g, Params{
		TileH: 8, TileW: 8, CPUWorkers: 1,
		Device: DeviceProfile{Workers: 1}, InitialFraction: 0.25, Adapt: false,
	})
	if rep.FinalFraction != 0.25 {
		t.Fatalf("fraction drifted without Adapt: %v", rep.FinalFraction)
	}
}

func TestAdaptationShiftsAwayFromSlowDevice(t *testing.T) {
	// A device with a large launch overhead and one worker should end
	// up with a small share.
	init := sandpile.Uniform(6).Build(96, 96, nil)
	g := init.Clone()
	rep := run(g, Params{
		TileH: 8, TileW: 8, CPUWorkers: 4,
		Device:          DeviceProfile{Workers: 1, LaunchOverhead: 2 * time.Millisecond},
		InitialFraction: 0.5, Adapt: true,
	})
	if rep.FinalFraction >= 0.5 {
		t.Fatalf("controller did not shift load off the slow device: final fraction %.3f",
			rep.FinalFraction)
	}
	if !sandpile.Stable(g) {
		t.Fatal("unstable result")
	}
}

func TestTraceOwnershipFig4(t *testing.T) {
	// Piles in one quadrant of a large grid: far tiles must never be
	// computed (black in Fig 4), computed tiles must have CPU or device
	// owners. Three piles keep the steady-state frontier wide enough
	// that the device split int(frac*len(active)) stays nonzero — a
	// single pile's edge-gated frontier is 1–2 tiles, which starves the
	// device side regardless of the controller.
	g := grid.New(128, 128)
	g.Set(3, 3, 8000)
	g.Set(3, 36, 8000)
	g.Set(36, 3, 8000)
	rec := trace.NewRecorder()
	run(g, Params{
		TileH: 16, TileW: 16, CPUWorkers: 2,
		Device: DeviceProfile{Workers: 1}, Adapt: true, Recorder: rec,
	})
	// Iteration 1 computes every tile (all start dirty); the Fig 4
	// view is the steady state after laziness kicks in.
	var later []trace.Event
	for _, e := range rec.Events() {
		if e.Iteration > 1 {
			later = append(later, e)
		}
	}
	owners := trace.TileOwners(later)
	tl := grid.NewTiling(128, 128, 16, 16)
	far := tl.TileOf(120, 120).ID
	if _, ok := owners[far]; ok {
		t.Fatal("far quiescent tile was computed; lazy hybrid is broken")
	}
	near := tl.TileOf(0, 0).ID
	if _, ok := owners[near]; !ok {
		t.Fatal("active tile has no owner")
	}
	devOwned, cpuOwned := 0, 0
	for _, w := range owners {
		if w == DeviceID {
			devOwned++
		} else {
			cpuOwned++
		}
	}
	if devOwned == 0 || cpuOwned == 0 {
		t.Fatalf("ownership not mixed: device=%d cpu=%d", devOwned, cpuOwned)
	}
}

func TestGrainAccounting(t *testing.T) {
	init := sandpile.Uniform(5).Build(40, 40, nil)
	g := init.Clone()
	rep := run(g, Params{TileH: 8, TileW: 8, CPUWorkers: 2, Device: DeviceProfile{Workers: 1}})
	if rep.Absorbed+g.Sum() != init.Sum() {
		t.Fatalf("grains leaked: absorbed=%d remaining=%d initial=%d",
			rep.Absorbed, g.Sum(), init.Sum())
	}
}

func TestMaxItersAborts(t *testing.T) {
	g := sandpile.Center(100000).Build(64, 64, nil)
	rep := run(g, Params{TileH: 8, TileW: 8, CPUWorkers: 2, Device: DeviceProfile{Workers: 1}, MaxIters: 4})
	if rep.Iterations != 4 {
		t.Fatalf("iterations = %d, want 4", rep.Iterations)
	}
}

func TestQuickHybridAbelian(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 8+rng.Intn(40), 8+rng.Intn(40)
		init := sandpile.Random(9).Build(h, w, rng)
		want := oracle(init)
		g := init.Clone()
		run(g, Params{
			TileH: 2 + rng.Intn(8), TileW: 2 + rng.Intn(8),
			CPUWorkers: 1 + rng.Intn(3),
			Device:     DeviceProfile{Workers: rng.Intn(3)},
			Adapt:      rng.Intn(2) == 0,
		})
		return g.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	g := sandpile.Uniform(4).Build(16, 16, nil)
	rep := run(g, Params{TileH: 4, TileW: 4, CPUWorkers: 1, Device: DeviceProfile{Workers: 1}})
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}
