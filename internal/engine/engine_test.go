package engine

import (
	"context"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/sandpile"
	"repro/internal/sched"
	"repro/internal/trace"
)

// oracle stabilizes a copy with the sequential asynchronous reference
// and returns it.
func oracle(g *grid.Grid) *grid.Grid {
	o := g.Clone()
	sandpile.StabilizeAsyncSeq(o)
	return o
}

func TestRegistryHasAllVariants(t *testing.T) {
	want := []string{
		"async-waves", "lazy-async-waves", "lazy-sync", "lazy-sync-inner",
		"omp-sync", "seq-async", "seq-sync", "tiled-sync", "tiled-sync-inner",
	}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestLookupUnknown(t *testing.T) {
	_, err := Lookup("no-such-variant")
	if err == nil || !strings.Contains(err.Error(), "unknown variant") {
		t.Fatalf("err = %v", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Register did not panic")
		}
	}()
	Register(Variant{Name: "seq-sync"})
}

// TestAllVariantsMatchOracle is the master Abelian cross-check: every
// registered variant must reach the oracle's exact fixed point.
func TestAllVariantsMatchOracle(t *testing.T) {
	configs := []sandpile.Config{
		sandpile.Center(5000),
		sandpile.Uniform(4),
		sandpile.Uniform(6),
		sandpile.Sparse(0.01, 200),
		sandpile.Random(8),
	}
	for _, cfg := range configs {
		rng := rand.New(rand.NewSource(11))
		init := cfg.Build(50, 46, rng)
		want := oracle(init)
		for _, name := range Names() {
			g := init.Clone()
			res, err := Run(name, g, Params{TileH: 8, TileW: 8, Workers: 4, Policy: sched.Dynamic})
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, name, err)
			}
			if !sandpile.Stable(g) {
				t.Fatalf("%s/%s: grid not stable after %v", cfg.Name, name, res)
			}
			if !g.Equal(want) {
				t.Fatalf("%s/%s: fixed point differs from oracle: %v",
					cfg.Name, name, g.Diff(want, 5))
			}
		}
	}
}

// TestVariantsUnderEveryPolicy exercises each parallel variant under
// each scheduling policy.
func TestVariantsUnderEveryPolicy(t *testing.T) {
	init := sandpile.Random(8).Build(40, 40, rand.New(rand.NewSource(3)))
	want := oracle(init)
	for _, name := range Names() {
		v, _ := Lookup(name)
		if !v.Parallel {
			continue
		}
		for _, policy := range sched.Policies {
			g := init.Clone()
			if _, err := Run(name, g, Params{TileH: 8, TileW: 8, Workers: 3, Policy: policy, ChunkSize: 2}); err != nil {
				t.Fatal(err)
			}
			if !g.Equal(want) {
				t.Fatalf("%s/%v: wrong fixed point: %v", name, policy, g.Diff(want, 3))
			}
		}
	}
}

func TestQuickParallelVariantsAbelian(t *testing.T) {
	names := []string{"omp-sync", "tiled-sync", "lazy-sync", "async-waves", "lazy-async-waves"}
	f := func(seed int64, pick uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 4+rng.Intn(40), 4+rng.Intn(40)
		init := sandpile.Random(10).Build(h, w, rng)
		want := oracle(init)
		name := names[int(pick)%len(names)]
		g := init.Clone()
		if _, err := Run(name, g, Params{
			TileH:   2 + rng.Intn(10),
			TileW:   2 + rng.Intn(10),
			Workers: 1 + rng.Intn(6),
			Policy:  sched.Policies[rng.Intn(len(sched.Policies))],
		}); err != nil {
			return false
		}
		return g.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLazySkipsQuiescentTiles(t *testing.T) {
	// A single pile in one corner of a large grid: far tiles must be
	// computed at most a handful of times under the lazy variant.
	g := grid.New(128, 128)
	g.Set(2, 2, 2000)
	rec := trace.NewRecorder()
	res, err := Run("lazy-sync", g, Params{
		TileH: 16, TileW: 16, Workers: 2,
		Recorder: rec, TraceFrom: 1, TraceTo: 0,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	// Count computed (Cells>0) events for the far-corner tile.
	tl := grid.NewTiling(128, 128, 16, 16)
	farID := tl.TileOf(120, 120).ID
	farComputed := 0
	for _, e := range events {
		if e.Tile == farID && e.Cells > 0 {
			farComputed++
		}
	}
	if farComputed > 2 {
		t.Fatalf("far tile computed %d times over %d iterations; lazy evaluation is broken",
			farComputed, res.Iterations)
	}
	if res.Iterations < 10 {
		t.Fatalf("suspiciously few iterations: %v", res)
	}
}

func TestLazyMatchesEagerWorkloads(t *testing.T) {
	for _, cfg := range []sandpile.Config{sandpile.Sparse(0.002, 500), sandpile.Center(3000)} {
		init := cfg.Build(96, 96, rand.New(rand.NewSource(9)))
		eager, lazy := init.Clone(), init.Clone()
		re, _ := Run("tiled-sync", eager, Params{TileH: 16, TileW: 16, Workers: 4})
		rl, _ := Run("lazy-sync", lazy, Params{TileH: 16, TileW: 16, Workers: 4})
		if !eager.Equal(lazy) {
			t.Fatalf("%s: lazy and eager fixed points differ", cfg.Name)
		}
		if rl.Iterations != re.Iterations {
			t.Fatalf("%s: lazy took %d iterations, eager %d; lazy must not change iteration count",
				cfg.Name, rl.Iterations, re.Iterations)
		}
	}
}

func TestTraceWindowRespected(t *testing.T) {
	g := sandpile.Uniform(4).Build(32, 32, nil)
	rec := trace.NewRecorder()
	_, err := Run("tiled-sync", g, Params{
		TileH: 8, TileW: 8, Workers: 2,
		Recorder: rec, TraceFrom: 3, TraceTo: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("no events recorded in window")
	}
	for _, e := range events {
		if e.Iteration < 3 || e.Iteration > 5 {
			t.Fatalf("event outside trace window: iteration %d", e.Iteration)
		}
	}
	// 16 tiles x 3 iterations
	if len(events) != 48 {
		t.Fatalf("events = %d, want 48", len(events))
	}
}

func TestNoTracingWithoutRecorder(t *testing.T) {
	g := sandpile.Uniform(4).Build(16, 16, nil)
	if _, err := Run("tiled-sync", g, Params{TileH: 4, TileW: 4}); err != nil {
		t.Fatal(err)
	}
}

func TestAsyncWavesRejectsTinyTiles(t *testing.T) {
	// The variant's validation panic is converted to an error by Run's
	// panic guard rather than unwinding the caller.
	g := sandpile.Uniform(4).Build(16, 16, nil)
	_, err := Run("async-waves", g, Params{TileH: 1, TileW: 4})
	if err == nil || !strings.Contains(err.Error(), "at least 2x2") {
		t.Fatalf("err = %v, want tile-size rejection", err)
	}
}

func TestMaxItersAborts(t *testing.T) {
	g := sandpile.Center(100000).Build(64, 64, nil)
	res, err := Run("omp-sync", g, Params{Workers: 2, MaxIters: 5})
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 5 {
		t.Fatalf("iterations = %d, want abort at 5", res.Iterations)
	}
	if sandpile.Stable(g) {
		t.Fatal("100k-grain pile cannot be stable after 5 iterations")
	}
}

func TestSyncVariantsAgreeOnIterationCount(t *testing.T) {
	// All synchronous variants perform the same logical steps, so
	// their iteration counts must agree exactly.
	init := sandpile.Random(7).Build(33, 29, rand.New(rand.NewSource(21)))
	var iters []int
	for _, name := range []string{"seq-sync", "omp-sync", "tiled-sync", "lazy-sync", "tiled-sync-inner", "lazy-sync-inner"} {
		g := init.Clone()
		res, err := Run(name, g, Params{TileH: 8, TileW: 8, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		iters = append(iters, res.Iterations)
	}
	for i := 1; i < len(iters); i++ {
		if iters[i] != iters[0] {
			t.Fatalf("iteration counts diverge: %v", iters)
		}
	}
}

func TestResultAccounting(t *testing.T) {
	init := sandpile.Uniform(5).Build(24, 24, nil)
	for _, name := range Names() {
		g := init.Clone()
		res, err := Run(name, g, Params{TileH: 4, TileW: 4, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Absorbed+g.Sum() != uint64(5*24*24) {
			t.Fatalf("%s: grain accounting broken: absorbed=%d remaining=%d", name, res.Absorbed, g.Sum())
		}
		if res.Topples == 0 {
			t.Fatalf("%s: no topples recorded for an unstable start", name)
		}
	}
}

func TestRunRecoversWorkerPanic(t *testing.T) {
	// A variant whose parallel body panics: sched.Pool.RunContext propagates
	// the panic to the caller, and engine.Run must convert it into an
	// error instead of crashing the process. Exercised via runGuarded
	// (the path Run takes) so the global registry stays clean — other
	// tests iterate over every registered variant.
	v := Variant{
		Name:        "test-panicky",
		Description: "panics from a worker body (test only)",
		Run: func(g *grid.Grid, p Params) sandpile.Result {
			pool := sched.New(sched.WithWorkers(2))
			defer pool.Close()
			pool.RunContext(context.Background(), 8, func(w, lo, hi int) {
				if lo <= 5 && 5 < hi {
					panic("tile exploded")
				}
			})
			return sandpile.Result{}
		},
	}
	_, err := runGuarded(v.Name, v, grid.New(8, 8), Params{})
	if err == nil || !strings.Contains(err.Error(), "tile exploded") {
		t.Fatalf("err = %v, want wrapped worker panic", err)
	}
}
