// Package ghost implements the fourth sandpile assignment: a
// distributed-memory run of the synchronous automaton using the Ghost
// Cell Pattern (Kjolstad & Snir 2010). The global grid is cut into
// the blocks of an R×C process grid; each rank owns one block and
// exchanges halo rows and columns with its neighbours, sharing no
// memory with them. WithRanks(n) is the n×1 grid of horizontal
// strips, WithProcessGrid(r, c) the general block decomposition.
// One runtime (fleet.go) runs every decomposition: its ranks are
// goroutines the coordinator serves in its own process, linked by
// typed channels, or fleet worker processes (WithFleet) linked over
// the run's transport. Both run the geometry and the K-step kernel
// defined here.
//
// The assignment's central trade-off — redundant computation for
// less-frequent communication — is a first-class parameter here: with
// ghost-zone width K, each rank holds K extra rows/columns per
// interior boundary, exchanges only every K iterations, and in between
// recomputes a shrinking band of its neighbors' cells. The run report
// counts messages, bytes, and redundantly computed cells so the
// trade-off can be measured rather than imagined.
//
// Runs are fault-tolerant when configured with WithFaults: halo
// links absorb injected message drop/delay/duplication (internal/
// fault's retransmit + dedupe link), and an injected rank crash aborts
// the generation, which the coordinator re-seeds from the last
// committed window. Determinism makes recovery exact: the
// post-recovery fixed point and committed topple count equal the
// fault-free run's.
package ghost

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

// Report summarizes a distributed run. It counts the rounds, halos and
// cells of the committed windows, up to the round that ends the run,
// plus what ranks served in the coordinator's process did in windows
// that were rolled back. A fleet worker's rolled-back work is not
// counted.
type Report struct {
	sandpile.Result
	Ranks          int
	GhostWidth     int
	Exchanges      int    // halo-exchange rounds started (committed + replayed)
	Messages       int    // point-to-point messages sent (including replays)
	BytesSent      uint64 // payload bytes across all messages
	RedundantCells uint64 // ghost-band cells recomputed beyond owned work
	OwnedCells     uint64 // owned cells computed
	// Recoveries counts coordinated rollbacks: generations re-seeded
	// from the last committed window after a rank crashed, died or was
	// lost.
	Recoveries int
	// FaultSchedule is the injector's sorted fired-fault log — the
	// reproducibility artifact: same seed, byte-identical schedule.
	// Empty without WithFaults.
	FaultSchedule []string
}

func (r Report) String() string {
	s := fmt.Sprintf("ranks=%d K=%d %v exchanges=%d msgs=%d bytes=%d redundant=%d",
		r.Ranks, r.GhostWidth, r.Result, r.Exchanges, r.Messages, r.BytesSent, r.RedundantCells)
	if r.Recoveries > 0 {
		s += fmt.Sprintf(" recoveries=%d", r.Recoveries)
	}
	return s
}

// publish adds the run's totals to the ghost.* counters; a nil
// registry ignores them.
func (r Report) publish(m *obs.Registry) {
	m.Counter("ghost.exchanges").Add(int64(r.Exchanges))
	m.Counter("ghost.halo.messages").Add(int64(r.Messages))
	m.Counter("ghost.halo.bytes").Add(int64(r.BytesSent))
	m.Counter("ghost.cells.redundant").Add(int64(r.RedundantCells))
	m.Counter("ghost.cells.owned").Add(int64(r.OwnedCells))
}

// geom is one rank's block geometry: the ghost width, the owned
// block's extent and global offset, and the ghost extent per side (K
// where a neighbouring block exists, 0 on the grid's sink sides).
type geom struct {
	K          int
	ownH, ownW int
	gTop, gBot int
	gLeft, gRh int
	top, left  int // global position of the owned block's first cell
}

func (ge geom) localH() int { return ge.gTop + ge.ownH + ge.gBot }
func (ge geom) localW() int { return ge.gLeft + ge.ownW + ge.gRh }

// decompose validates cfg for g, defaults MaxIters, and cuts g into
// the procRows×procCols process grid: one geom per rank, in linear
// rank order pr*C+pc. Blocks must be at least K deep only along the
// dimensions that are actually split, so a one-column strip run
// accepts grids narrower than K.
func decompose(g *grid.Grid, cfg *config) ([]geom, error) {
	R, C, K := cfg.procRows, cfg.procCols, cfg.width
	if R <= 0 || C <= 0 {
		return nil, fmt.Errorf("ghost: invalid process grid %dx%d (need WithRanks or WithProcessGrid)", R, C)
	}
	if K <= 0 {
		return nil, fmt.Errorf("ghost: GhostWidth must be >= 1, got %d", K)
	}
	if (R > 1 && g.H()/R < K) || (C > 1 && g.W()/C < K) {
		return nil, fmt.Errorf("ghost: blocks of %dx%d grid over %dx%d ranks smaller than K=%d",
			g.H(), g.W(), R, C, K)
	}
	if cfg.maxIters <= 0 {
		cfg.maxIters = sandpile.MaxIterations
	}
	rowOf, colOf := splitExtents(g.H(), R), splitExtents(g.W(), C)
	geoms := make([]geom, 0, R*C)
	for pr := 0; pr < R; pr++ {
		for pc := 0; pc < C; pc++ {
			ge := geom{K: K,
				ownH: rowOf[pr+1] - rowOf[pr], ownW: colOf[pc+1] - colOf[pc],
				top: rowOf[pr], left: colOf[pc]}
			if pr > 0 {
				ge.gTop = K
			}
			if pr < R-1 {
				ge.gBot = K
			}
			if pc > 0 {
				ge.gLeft = K
			}
			if pc < C-1 {
				ge.gRh = K
			}
			geoms = append(geoms, ge)
		}
	}
	return geoms, nil
}

// splitExtents returns n+1 boundaries splitting total cells into n
// near-equal extents, larger blocks first.
func splitExtents(total, n int) []int {
	out := make([]int, n+1)
	base, extra := total/n, total%n
	pos := 0
	for i := 0; i < n; i++ {
		out[i] = pos
		pos += base
		if i < extra {
			pos++
		}
	}
	out[n] = total
	return out
}

// roundWork is what one rank computed in one K-step round.
type roundWork struct {
	changes   int    // owned cells that changed
	owned     uint64 // owned cells computed (the whole block, every step)
	redundant uint64 // ghost-band cells recomputed
}

// computeBlock runs the round's K synchronous steps over the
// rank-local grid cur (owned block framed by its ghost zones), with
// next as caller-owned scratch. The valid band shrinks by one cell
// per step on every side that has a ghost zone; sink-adjacent sides
// stay put. Each step is at most five rectangles: the ghost rows
// above and below the owned block, the ghost columns beside it, and
// the block itself, computed apart so owned changes are counted
// exactly once. It returns the work done, the grid holding the final
// state, and the spare one.
func computeBlock(ge geom, cur, next *grid.Grid) (w roundWork, final, spare *grid.Grid) {
	H, W := cur.H(), cur.W()
	ownT, ownB := ge.gTop, ge.gTop+ge.ownH
	ownL, ownR := ge.gLeft, ge.gLeft+ge.ownW
	for s := 1; s <= ge.K; s++ {
		y0, y1, x0, x1 := 0, H, 0, W
		if ge.gTop > 0 {
			y0 = s
		}
		if ge.gBot > 0 {
			y1 = H - s
		}
		if ge.gLeft > 0 {
			x0 = s
		}
		if ge.gRh > 0 {
			x1 = W - s
		}
		sandpile.SyncRegion(cur, next, y0, ownT, x0, x1)
		sandpile.SyncRegion(cur, next, ownB, y1, x0, x1)
		w.redundant += uint64((ownT-y0)+(y1-ownB)) * uint64(x1-x0)
		sandpile.SyncRegion(cur, next, ownT, ownB, x0, ownL)
		sandpile.SyncRegion(cur, next, ownT, ownB, ownR, x1)
		w.redundant += uint64(ge.ownH) * uint64((ownL-x0)+(x1-ownR))
		w.changes += sandpile.SyncRegion(cur, next, ownT, ownB, ownL, ownR)
		w.owned += uint64(ge.ownH) * uint64(ge.ownW)
		cur, next = next, cur
	}
	return w, cur, next
}
