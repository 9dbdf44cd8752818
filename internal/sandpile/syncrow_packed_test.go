package sandpile

import (
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// scalarRowRef is the obviously-correct five-point kernel, kept free of
// windowing and slicing tricks so it can referee the packed kernels.
func scalarRowRef(cur, next *grid.Grid, y, x0, x1 int) int {
	c := cur.Cells()
	n := next.Cells()
	stride := cur.Stride()
	changes := 0
	for x := x0; x < x1; x++ {
		i := cur.Idx(y, x)
		v := c[i]%Threshold + c[i-1]/Threshold + c[i+1]/Threshold +
			c[i-stride]/Threshold + c[i+stride]/Threshold
		n[i] = v
		if v != c[i] {
			changes++
		}
	}
	return changes
}

// TestSyncRowMatchesScalarReference drives SyncRow (which dispatches to
// the vector kernels on amd64) against the plain scalar kernel on
// random rows: random widths including odd ones and widths below one
// vector, random offsets, and values well past Threshold.
func TestSyncRowMatchesScalarReference(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		h := 3 + rng.Intn(6)
		w := 3 + rng.Intn(40)
		cur := grid.New(h, w)
		cells := cur.Cells()
		for i := range cells {
			cells[i] = uint32(rng.Intn(12)) // halo too: sink cells hold junk safely below overflow
		}
		next := grid.New(h, w)
		ref := grid.New(h, w)
		next.CopyFrom(cur)
		ref.CopyFrom(cur)

		y := rng.Intn(h)
		x0 := rng.Intn(w)
		x1 := x0 + 1 + rng.Intn(w-x0)

		got := SyncRow(cur, next, y, x0, x1)
		want := scalarRowRef(cur, ref, y, x0, x1)
		if got != want {
			t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): change count %d, want %d",
				trial, y, x0, x1, h, w, got, want)
		}
		nc, rc := next.Cells(), ref.Cells()
		for i := range nc {
			if nc[i] != rc[i] {
				t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): cell %d = %d, want %d",
					trial, y, x0, x1, h, w, i, nc[i], rc[i])
			}
		}
	}
}

// TestPackedRowMatchesScalarReference exercises syncRegionPacked
// directly on one row where the packed kernels exist.
func TestPackedRowMatchesScalarReference(t *testing.T) {
	if !hasPackedKernels {
		t.Skip("no packed kernels on this architecture")
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		h := 3 + rng.Intn(5)
		w := 4 + rng.Intn(60)
		cur := grid.New(h, w)
		cells := cur.Cells()
		for i := range cells {
			cells[i] = uint32(rng.Intn(9))
		}
		next := grid.New(h, w)
		ref := grid.New(h, w)
		next.CopyFrom(cur)
		ref.CopyFrom(cur)

		y := rng.Intn(h)
		x0 := rng.Intn(w - 2)
		span := 2 + rng.Intn(w-x0-2+1)
		x1 := x0 + span

		got := syncRegionPacked(cur.Cells(), next.Cells(), cur.Idx(y, x0), cur.Stride(), span, 1)
		want := scalarRowRef(cur, ref, y, x0, x1)
		if got != want {
			t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): change count %d, want %d",
				trial, y, x0, x1, h, w, got, want)
		}
		nc, rc := next.Cells(), ref.Cells()
		for i := range nc {
			if nc[i] != rc[i] {
				t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): cell %d = %d, want %d",
					trial, y, x0, x1, h, w, i, nc[i], rc[i])
			}
		}
	}
}
