// Package sandpile implements the Bak–Tang–Wiesenfeld Abelian sandpile
// automaton (Bak, Tang, Wiesenfeld 1988; Dhar 1990) on a 4-connected
// N×M lattice whose border cells are connected to an absorbing sink.
//
// A cell holding fewer than 4 grains is stable. An unstable cell
// topples: it keeps grains%4 and gives grains/4 to each of its four
// neighbors. Grains pushed past the border fall into the sink and are
// lost. Dhar proved the final stable configuration is independent of
// the order in which unstable cells topple (the Abelian property),
// which is exactly what makes the model a good parallelism exercise —
// any schedule is correct, so all optimization effort can go into
// performance.
//
// This package provides the sequential kernels of the assignment's
// Figure 2 (synchronous with an auxiliary array, asynchronous
// in-place), the specialized inner-region kernel the vectorization
// assignment asks for, and the reference solver used as the oracle in
// cross-variant tests.
package sandpile

import (
	"repro/internal/grid"
)

// Threshold is the toppling threshold of the BTW model: a cell is
// stable iff it holds fewer than Threshold grains.
const Threshold = 4

// SyncStep performs one synchronous step of the automaton: every
// interior cell of cur is recomputed simultaneously into next using
//
//	next(y,x) = cur(y,x)%4 + cur(y,x-1)/4 + cur(y,x+1)/4
//	          + cur(y-1,x)/4 + cur(y+1,x)/4
//
// (the sync_compute_new_state kernel of the paper's Figure 2). The
// halo of cur acts as the sink and contributes nothing. It returns the
// number of cells whose value changed; zero means cur is stable.
func SyncStep(cur, next *grid.Grid) int {
	return SyncRegion(cur, next, 0, cur.H(), 0, cur.W())
}

// SyncRow applies the synchronous kernel to cells [x0, x1) of row y,
// returning the number of changed cells: a SyncRegion of one row.
func SyncRow(cur, next *grid.Grid, y, x0, x1 int) int {
	return SyncRegion(cur, next, y, y+1, x0, x1)
}

// syncRowScalar is the portable row kernel: w cells starting at flat
// index base, returning the number of changed cells.
//
// The row is pre-sliced to its exact extent so the compiler drops the
// per-cell bounds checks, and the left/center/right cells ride a
// sliding window: each step loads only the incoming right cell plus
// the up/down rows instead of re-reading all five stencil points.
func syncRowScalar(c, n []uint32, base, stride, w int) int {
	// The explicit re-slices pin each slice's length to w (w+2 for the
	// shifted mid row), which is what lets the compiler prove every
	// index below in bounds and drop the per-cell checks.
	mid := c[base-1 : base+w+1][: w+2 : w+2] // shifted: mid[k+1] holds cell k
	up := c[base-stride : base-stride+w][:w:w]
	down := c[base+stride : base+stride+w][:w:w]
	out := n[base : base+w][:w:w]
	changes := 0
	left := mid[0]
	center := mid[1]
	for k := range out {
		right := mid[k+2]
		v := center%Threshold + left/Threshold + right/Threshold +
			up[k]/Threshold + down[k]/Threshold
		out[k] = v
		if v != center {
			changes++
		}
		left, center = center, right
	}
	return changes
}

// AsyncCell topples interior cell (y, x) in place if it is unstable
// (the async_compute_new_state kernel of the paper's Figure 2),
// distributing grains/4 to each 4-neighbor — including halo cells,
// which act as the sink. It reports whether the cell toppled.
func AsyncCell(g *grid.Grid, y, x int) bool {
	c := g.Cells()
	i := g.Idx(y, x)
	v := c[i]
	if v < Threshold {
		return false
	}
	div4 := v / Threshold
	stride := g.Stride()
	c[i-1] += div4
	c[i+1] += div4
	c[i-stride] += div4
	c[i+stride] += div4
	c[i] = v % Threshold
	return true
}

// AsyncRegion sweeps the asynchronous kernel over the cell rectangle
// [y0,y1)×[x0,x1) in row-major order, toppling in place, and returns
// the number of topplings performed. One sweep does not generally
// stabilize the region: topplings re-destabilize earlier cells.
func AsyncRegion(g *grid.Grid, y0, y1, x0, x1 int) int {
	c := g.Cells()
	stride := g.Stride()
	topples := 0
	for y := y0; y < y1; y++ {
		i := g.Idx(y, x0)
		for x := x0; x < x1; x++ {
			if v := c[i]; v >= Threshold {
				div4 := v / Threshold
				c[i-1] += div4
				c[i+1] += div4
				c[i-stride] += div4
				c[i+stride] += div4
				c[i] = v % Threshold
				topples++
			}
			i++
		}
	}
	return topples
}

// SyncRegionInner is the "inner tile" entry point of the third
// assignment, which tiled-sync-inner and lazy-sync-inner call on tiles
// that touch no grid border. The assignment separates inner tiles so
// that their kernel needs no sink handling and vectorizes; here every
// rectangle reads its missing neighbours from the halo, so no kernel
// handles sinks, and an inner tile runs the same region dispatch
// (SyncRegion) — the vector kernels on amd64.
func SyncRegionInner(cur, next *grid.Grid, y0, y1, x0, x1 int) int {
	return SyncRegion(cur, next, y0, y1, x0, x1)
}

// SyncRegion applies the synchronous kernel to an arbitrary rectangle
// [y0,y1)×[x0,x1) (outer tiles included — the halo supplies the
// missing neighbors) and returns the number of changed cells. Every
// synchronous sweep goes through it: parallel variants carve the grid
// into row ranges, tiles or blocks and call it from several
// goroutines. It only writes the rectangle of next, so concurrent
// calls on disjoint rectangles are race-free. On amd64 the whole
// rectangle is one call per vector kernel (syncrow_amd64.go).
func SyncRegion(cur, next *grid.Grid, y0, y1, x0, x1 int) int {
	w, h := x1-x0, y1-y0
	if w <= 0 || h <= 0 {
		return 0
	}
	c, n := cur.Cells(), next.Cells()
	stride := cur.Stride()
	base := cur.Idx(y0, x0)
	if usePacked {
		return syncRegionPacked(c, n, base, stride, w, h)
	}
	changes := 0
	for ; h > 0; h-- {
		changes += syncRowScalar(c, n, base, stride, w)
		base += stride
	}
	return changes
}

// SyncEdgeMask reports which edges of the region [y0,y1)×[x0,x1)
// changed their outward contribution between cur and next, as
// grid.Dir* bits. The synchronous kernel reads neighboring cells only
// through their value/Threshold quotient, so after a tile step the
// adjacent tile's inputs changed iff the facing bit is set — the
// frontier engines use this to wake only neighbors a change can reach.
func SyncEdgeMask(cur, next *grid.Grid, y0, y1, x0, x1 int) uint8 {
	c := cur.Cells()
	n := next.Cells()
	stride := cur.Stride()
	var m uint8
	w := x1 - x0
	top := cur.Idx(y0, x0)
	for k := 0; k < w; k++ {
		if c[top+k]/Threshold != n[top+k]/Threshold {
			m |= grid.DirUp
			break
		}
	}
	bot := cur.Idx(y1-1, x0)
	for k := 0; k < w; k++ {
		if c[bot+k]/Threshold != n[bot+k]/Threshold {
			m |= grid.DirDown
			break
		}
	}
	h := y1 - y0
	left := cur.Idx(y0, x0)
	for k, i := 0, left; k < h; k, i = k+1, i+stride {
		if c[i]/Threshold != n[i]/Threshold {
			m |= grid.DirLeft
			break
		}
	}
	right := cur.Idx(y0, x1-1)
	for k, i := 0, right; k < h; k, i = k+1, i+stride {
		if c[i]/Threshold != n[i]/Threshold {
			m |= grid.DirRight
			break
		}
	}
	return m
}

// RegionUnstable reports whether any cell in [y0,y1)×[x0,x1) holds at
// least Threshold grains. The frontier engines use it on single edge
// lines: an asleep tile can only be destabilized by grains arriving on
// a boundary line, so scanning that line decides whether a wake-up is
// needed.
func RegionUnstable(g *grid.Grid, y0, y1, x0, x1 int) bool {
	c := g.Cells()
	for y := y0; y < y1; y++ {
		base := g.Idx(y, x0)
		for i := base; i < base+(x1-x0); i++ {
			if c[i] >= Threshold {
				return true
			}
		}
	}
	return false
}

// Stable reports whether every interior cell holds fewer than
// Threshold grains.
func Stable(g *grid.Grid) bool {
	for y := 0; y < g.H(); y++ {
		for _, v := range g.Row(y) {
			if v >= Threshold {
				return false
			}
		}
	}
	return true
}

// Unstable returns the number of interior cells at or above Threshold.
func Unstable(g *grid.Grid) int {
	n := 0
	for y := 0; y < g.H(); y++ {
		for _, v := range g.Row(y) {
			if v >= Threshold {
				n++
			}
		}
	}
	return n
}
