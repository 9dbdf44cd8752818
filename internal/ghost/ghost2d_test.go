package ghost

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/grid"
	"repro/internal/sandpile"
)

func TestRun2DSingleRankMatchesOracle(t *testing.T) {
	g := sandpile.Uniform(4).Build(24, 24, nil)
	want := oracle(g)
	rep, err := New(g, WithProcessGrid(1, 1), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatalf("fixed point differs: %v", g.Diff(want, 5))
	}
	if rep.Messages != 0 {
		t.Fatalf("single rank sent %d messages", rep.Messages)
	}
}

func TestRun2DMatchesOracleAcrossGrids(t *testing.T) {
	init := sandpile.Random(8).Build(60, 52, rand.New(rand.NewSource(14)))
	want := oracle(init)
	for _, pg := range []struct{ r, c int }{{1, 2}, {2, 1}, {2, 2}, {3, 3}, {2, 4}} {
		for _, k := range []int{1, 2, 4} {
			g := init.Clone()
			rep, err := New(g, WithProcessGrid(pg.r, pg.c), WithWidth(k)).Run()
			if err != nil {
				t.Fatalf("%dx%d K=%d: %v", pg.r, pg.c, k, err)
			}
			if !g.Equal(want) {
				t.Fatalf("%dx%d K=%d: wrong fixed point: %v", pg.r, pg.c, k, g.Diff(want, 5))
			}
			if rep.Absorbed+g.Sum() != init.Sum() {
				t.Fatalf("%dx%d K=%d: grain accounting broken", pg.r, pg.c, k)
			}
		}
	}
}

// TestRun2DCornersMatter uses a configuration whose avalanche crosses
// block corners: with K >= 2 correctness requires the two-phase
// exchange to deliver diagonal data.
func TestRun2DCornersMatter(t *testing.T) {
	g := grid.New(40, 40)
	// Pile exactly at the junction of a 2x2 block decomposition.
	g.Set(19, 19, 50000)
	want := oracle(g)
	for _, k := range []int{2, 4, 8} {
		got := grid.New(40, 40)
		got.Set(19, 19, 50000)
		if _, err := New(got, WithProcessGrid(2, 2), WithWidth(k)).Run(); err != nil {
			t.Fatal(err)
		}
		if !got.Equal(want) {
			t.Fatalf("K=%d: corner exchange broken: %v", k, got.Diff(want, 5))
		}
	}
}

func TestRun2DMatches1DOnStrips(t *testing.T) {
	init := sandpile.Center(20000).Build(64, 64, nil)
	a := init.Clone()
	b := init.Clone()
	if _, err := New(a, WithRanks(4), WithWidth(2)).Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := New(b, WithProcessGrid(4, 1), WithWidth(2)).Run(); err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("2D decomposition on strips disagrees with the 1D runtime")
	}
}

func TestRun2DValidation(t *testing.T) {
	g := grid.New(16, 16)
	if _, err := New(g, WithProcessGrid(0, 1), WithWidth(1)).Run(); err == nil {
		t.Fatal("zero rank rows accepted")
	}
	if _, err := New(g, WithProcessGrid(1, 1), WithWidth(0)).Run(); err == nil {
		t.Fatal("zero ghost width accepted")
	}
	if _, err := New(g, WithProcessGrid(4, 4), WithWidth(8)).Run(); err == nil {
		t.Fatal("K larger than block accepted")
	}
}

func TestRun2DMessageAccounting(t *testing.T) {
	g := sandpile.Uniform(4).Build(32, 32, nil)
	rep, err := New(g, WithProcessGrid(2, 2), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	// 2x2 grid: 2 horizontal + 2 vertical interior boundaries, 2
	// messages each per exchange.
	if want := rep.Exchanges * 8; rep.Messages != want {
		t.Fatalf("messages = %d, want %d (%d exchanges)", rep.Messages, want, rep.Exchanges)
	}
}

func TestSplitExtents(t *testing.T) {
	got := splitExtents(10, 3)
	want := []int{0, 4, 7, 10}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("splitExtents(10,3) = %v, want %v", got, want)
		}
	}
}

func TestQuickRun2DAbelian(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h, w := 16+rng.Intn(40), 16+rng.Intn(40)
		init := sandpile.Random(9).Build(h, w, rng)
		want := oracle(init)
		rr, rc := 1+rng.Intn(3), 1+rng.Intn(3)
		maxK := min(h/rr, w/rc)
		if maxK > 4 {
			maxK = 4
		}
		k := 1 + rng.Intn(maxK)
		g := init.Clone()
		if _, err := New(g, WithProcessGrid(rr, rc), WithWidth(k)).Run(); err != nil {
			return false
		}
		return g.Equal(want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
