package ghost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/sandpile"
)

func oracle(g *grid.Grid) *grid.Grid {
	o := g.Clone()
	sandpile.StabilizeAsyncSeq(o)
	return o
}

func TestSingleRankMatchesOracle(t *testing.T) {
	g := sandpile.Uniform(4).Build(32, 32, nil)
	want := oracle(g)
	rep, err := New(g, WithRanks(1), WithWidth(1)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatalf("fixed point differs: %v", g.Diff(want, 5))
	}
	if rep.Messages != 0 || rep.BytesSent != 0 {
		t.Fatalf("single rank sent messages: %+v", rep)
	}
}

func TestMultiRankMatchesOracleAcrossWidths(t *testing.T) {
	init := sandpile.Random(8).Build(64, 48, rand.New(rand.NewSource(4)))
	want := oracle(init)
	for _, ranks := range []int{2, 3, 4, 8} {
		for _, k := range []int{1, 2, 4, 8} {
			g := init.Clone()
			rep, err := New(g, WithRanks(ranks), WithWidth(k)).Run()
			if err != nil {
				t.Fatalf("ranks=%d k=%d: %v", ranks, k, err)
			}
			if !g.Equal(want) {
				t.Fatalf("ranks=%d k=%d: wrong fixed point: %v", ranks, k, g.Diff(want, 5))
			}
			if !sandpile.Stable(g) {
				t.Fatalf("ranks=%d k=%d: unstable result", ranks, k)
			}
			if rep.Absorbed+g.Sum() != init.Sum() {
				t.Fatalf("ranks=%d k=%d: grain accounting broken: %+v", ranks, k, rep)
			}
		}
	}
}

func TestWiderGhostMeansFewerMessagesMoreRedundancy(t *testing.T) {
	init := sandpile.Center(20000).Build(96, 96, nil)
	var prev *Report
	for _, k := range []int{1, 2, 4, 8} {
		g := init.Clone()
		rep, err := New(g, WithRanks(4), WithWidth(k)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if k > 1 {
			if rep.Messages >= prev.Messages {
				t.Fatalf("K=%d messages=%d not fewer than K=%d messages=%d",
					k, rep.Messages, k/2, prev.Messages)
			}
			if rep.RedundantCells <= prev.RedundantCells {
				t.Fatalf("K=%d redundant=%d not more than K=%d redundant=%d",
					k, rep.RedundantCells, k/2, prev.RedundantCells)
			}
		}
		if k == 1 && rep.RedundantCells != 0 {
			// With K=1 the ghost row is read but never recomputed:
			// the trade-off starts at zero redundancy.
			t.Fatalf("K=1 should have no redundant compute, got %d", rep.RedundantCells)
		}
		prev = &rep
	}
}

func TestMessageAccounting(t *testing.T) {
	g := sandpile.Uniform(4).Build(40, 40, nil)
	rep, err := New(g, WithRanks(4), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// 3 interior boundaries, 2 messages each per exchange.
	if want := rep.Exchanges * 6; rep.Messages != want {
		t.Fatalf("messages = %d, want %d (%d exchanges)", rep.Messages, want, rep.Exchanges)
	}
	// Each message carries K rows of W uint32 cells.
	if want := uint64(rep.Messages) * 2 * 40 * 4; rep.BytesSent != want {
		t.Fatalf("bytes = %d, want %d", rep.BytesSent, want)
	}
}

func TestIterationsRoundedUpToK(t *testing.T) {
	init := sandpile.Random(6).Build(48, 32, rand.New(rand.NewSource(7)))
	seq := init.Clone()
	seqRes := sandpile.StabilizeSyncSeq(seq)
	for _, k := range []int{1, 3, 5} {
		g := init.Clone()
		rep, err := New(g, WithRanks(2), WithWidth(k)).Run()
		if err != nil {
			t.Fatal(err)
		}
		if rep.Iterations%k != 0 {
			t.Fatalf("K=%d iterations=%d not a multiple of K", k, rep.Iterations)
		}
		// The last changing step is seq-1; the run stops after the
		// first fully quiet round, i.e. at most 2K-2 steps later.
		if rep.Iterations < seqRes.Iterations-1 || rep.Iterations > seqRes.Iterations+2*k-2 {
			t.Fatalf("K=%d iterations=%d inconsistent with sequential %d",
				k, rep.Iterations, seqRes.Iterations)
		}
	}
}

func TestUnevenStripDivision(t *testing.T) {
	// 50 rows over 3 ranks: 17/17/16.
	init := sandpile.Random(8).Build(50, 30, rand.New(rand.NewSource(9)))
	want := oracle(init)
	g := init.Clone()
	if _, err := New(g, WithRanks(3), WithWidth(2)).Run(); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatalf("uneven strips broke the fixed point: %v", g.Diff(want, 5))
	}
}

// A strip run splits rows only, so a grid narrower than K is fine:
// the block-size check applies to split dimensions alone.
func TestNarrowGridStrips(t *testing.T) {
	init := sandpile.Random(12).Build(24, 1, rand.New(rand.NewSource(3)))
	want := oracle(init)
	g := init.Clone()
	if _, err := New(g, WithRanks(3), WithWidth(2)).Run(); err != nil {
		t.Fatalf("24x1 grid over 3 strips with K=2: %v", err)
	}
	if !g.Equal(want) {
		t.Fatalf("narrow strips: wrong fixed point: %v", g.Diff(want, 5))
	}
}

func TestParameterValidation(t *testing.T) {
	g := grid.New(16, 16)
	if _, err := New(g, WithRanks(0), WithWidth(1)).Run(); err == nil {
		t.Fatal("Ranks=0 accepted")
	}
	if _, err := New(g, WithRanks(2), WithWidth(0)).Run(); err == nil {
		t.Fatal("GhostWidth=0 accepted")
	}
	// 16 rows over 8 ranks = 2 rows each; K=4 > 2 must be rejected.
	if _, err := New(g, WithRanks(8), WithWidth(4)).Run(); err == nil {
		t.Fatal("GhostWidth larger than strip accepted")
	}
}

func TestMaxItersAborts(t *testing.T) {
	g := sandpile.Center(200000).Build(64, 64, nil)
	rep, err := New(g, WithRanks(2), WithWidth(2), WithMaxIters(10)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Iterations > 10+2 {
		t.Fatalf("MaxIters not honored: %d", rep.Iterations)
	}
	if sandpile.Stable(g) {
		t.Fatal("cannot be stable that fast")
	}
}

func TestQuickGhostAbelian(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 16+rng.Intn(48), 8+rng.Intn(40)
		init := sandpile.Random(10).Build(h, w, rng)
		want := oracle(init)
		ranks := 1 + rng.Intn(4)
		maxK := h / ranks
		if maxK > 6 {
			maxK = 6
		}
		k := 1 + rng.Intn(maxK)
		g := init.Clone()
		if _, err := New(g, WithRanks(ranks), WithWidth(k)).Run(); err != nil {
			return false
		}
		return g.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestReportString(t *testing.T) {
	g := sandpile.Uniform(4).Build(16, 16, nil)
	rep, err := New(g, WithRanks(2), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.String() == "" {
		t.Fatal("empty report string")
	}
}
