package engine

import (
	"context"
	"testing"

	"repro/internal/sandpile"
)

// Tests for the OnIteration monitoring hook (EASYPAP's real-time
// monitoring analog).

func TestOnIterationCalledEveryIteration(t *testing.T) {
	for _, name := range Names() {
		g := sandpile.Uniform(4).Build(24, 24, nil)
		var calls []IterStats
		res, err := Run(name, g, Params{
			TileH: 8, TileW: 8, Workers: 2,
			OnIteration: func(st IterStats) { calls = append(calls, st) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != res.Iterations {
			t.Fatalf("%s: %d callbacks for %d iterations", name, len(calls), res.Iterations)
		}
		for i, st := range calls {
			if st.Iteration != i+1 {
				t.Fatalf("%s: callback %d has iteration %d", name, i, st.Iteration)
			}
		}
		// The final iteration observes stability: zero changes.
		if last := calls[len(calls)-1]; last.Changes != 0 {
			t.Fatalf("%s: final iteration reported %d changes", name, last.Changes)
		}
		// Total changes across callbacks equals Result.Topples.
		var sum uint64
		for _, st := range calls {
			sum += uint64(st.Changes)
		}
		if sum != res.Topples {
			t.Fatalf("%s: callbacks sum to %d, result says %d", name, sum, res.Topples)
		}
	}
}

func TestOnIterationActiveTilesShrinkUnderLaziness(t *testing.T) {
	g := sandpile.Center(2000).Build(96, 96, nil)
	var first, last IterStats
	n := 0
	_, err := Run("lazy-sync", g, Params{
		TileH: 16, TileW: 16, Workers: 2,
		OnIteration: func(st IterStats) {
			if n == 0 {
				first = st
			}
			last = st
			n++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if first.ActiveTiles != 36 {
		t.Fatalf("first iteration active tiles = %d, want all 36", first.ActiveTiles)
	}
	if last.ActiveTiles >= first.ActiveTiles {
		t.Fatalf("laziness did not shrink the active set: first %d, last %d",
			first.ActiveTiles, last.ActiveTiles)
	}
}

func TestOnIterationUntiledReportsMinusOne(t *testing.T) {
	for _, name := range []string{"seq-sync", "seq-async", "omp-sync"} {
		g := sandpile.Uniform(4).Build(16, 16, nil)
		sawTiles := false
		if _, err := Run(name, g, Params{Workers: 2, OnIteration: func(st IterStats) {
			if st.ActiveTiles != -1 {
				sawTiles = true
			}
		}}); err != nil {
			t.Fatal(err)
		}
		if sawTiles {
			t.Fatalf("%s: untiled variant reported tile counts", name)
		}
	}
}

func TestMonitoredSeqVariantsMatchUnmonitored(t *testing.T) {
	init := sandpile.Random(9).Build(30, 30, nil)
	for _, name := range []string{"seq-sync", "seq-async"} {
		a, b := init.Clone(), init.Clone()
		ra, err := Run(name, a, Params{})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := Run(name, b, Params{OnIteration: func(IterStats) {}})
		if err != nil {
			t.Fatal(err)
		}
		if !a.Equal(b) {
			t.Fatalf("%s: monitoring changed the result", name)
		}
		if ra.Iterations != rb.Iterations || ra.Topples != rb.Topples {
			t.Fatalf("%s: monitoring changed accounting: %v vs %v", name, ra, rb)
		}
	}
}

// TestMaxItersCapsEveryVariant: with a context that can never fire and
// no OnIteration hook, every variant still stops after MaxIters
// iterations and leaves the pile unstable. seq-sync and seq-async used
// to take a direct path with no cap and ran 733 and 378 iterations.
func TestMaxItersCapsEveryVariant(t *testing.T) {
	for _, name := range Names() {
		g := sandpile.Center(4000).Build(64, 64, nil)
		res, err := RunContext(context.Background(), name, g, Params{MaxIters: 10, Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if res.Iterations != 10 {
			t.Errorf("%s: ran %d iterations with MaxIters 10", name, res.Iterations)
		}
		if sandpile.Stable(g) {
			t.Errorf("%s: pile is stable after 10 of its iterations", name)
		}
	}
}
