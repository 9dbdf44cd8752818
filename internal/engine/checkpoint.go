package engine

// checkpoint.go wires the durable checkpoint subsystem into the
// engine loop. Snapshots are taken inside the OnIteration hook (the
// same piggyback Run uses for per-iteration tracer spans), so every
// variant checkpoints at iteration boundaries, where the
// post-iteration grid is globally consistent.
//
// A snapshot stores the post-iteration interior cells plus the
// cumulative iteration/topple/absorbed totals, and — for the lazy
// variants — the iteration's active worklist. Resume restores the
// cells and re-seeds the frontier with the saved worklist PLUS each
// tile's 4-neighborhood: that set is a provable superset of the true
// next frontier (changed tiles ∪ their edge-woken neighbors), and
// seeding a superset is sound — an extra tile is already stable under
// its inputs, computes zero changes, wakes nobody, and leaves the
// worklist after one iteration, so the resumed trajectory (totals,
// stop iteration, final cells) is identical to the uninterrupted one.
// Snapshots are variant-portable: a frontier recorded by one tiling
// (or an eager variant's snapshot with no frontier at all) degrades
// to seed-everything, which is always correct.
//
// Determinism of the iteration count is preserved by never saving on
// an iteration with zero changes (the run is ending — a resume from
// such a snapshot would append one extra fixed-point iteration) nor
// on the iteration that exhausts MaxIters.

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/grid"
)

// enginePayload tags engine snapshots inside the ckpt frame.
const enginePayload uint32 = 1

// ckptState carries the totals already banked by previous run
// segments, plus the first save error (surfaced after the run).
type ckptState struct {
	iters    int
	topples  uint64
	absorbed uint64
	err      error
}

// setupCheckpoint restores the newest snapshot into g (when the
// Checkpointer resumes) and installs the cadence-save hook in front
// of p.OnIteration, exactly like the tracer piggyback.
func setupCheckpoint(p *Params, g *grid.Grid) (*ckptState, error) {
	d := p.withDefaults() // resolved tile geometry and iteration budget
	st := &ckptState{}
	epoch, payload, ok, err := p.Ckpt.Load()
	if err != nil {
		return nil, err
	}
	if ok {
		if err := st.restore(payload, epoch, g, p, d); err != nil {
			return nil, err
		}
		// The remaining budget keeps a resumed run on the same global
		// iteration cap as an uninterrupted one.
		p.MaxIters = d.MaxIters - st.iters
		if p.MaxIters < 1 {
			p.MaxIters = 1
		}
	}

	base := g.Sum() // segment-start grains, after any restore
	user := p.OnIteration
	prior := st.iters
	cum := st.topples
	ck := p.Ckpt
	tileH, tileW := d.TileH, d.TileW
	maxIters := d.MaxIters
	p.OnIteration = func(is IterStats) {
		cum += uint64(is.Changes)
		global := int64(prior) + int64(is.Iteration)
		if is.Changes > 0 && int(global) < maxIters && ck.Due(global) {
			absorbed := st.absorbed + (base - is.Grid.Sum())
			var fr []int32
			if is.frontier != nil {
				fr = is.frontier()
			}
			pl := encodeEngineSnapshot(global, cum, absorbed, tileH, tileW, is.Grid, fr)
			if err := ck.Save(uint64(global), pl); err != nil && st.err == nil {
				st.err = err
			}
		}
		if user != nil {
			user(is)
		}
	}
	return st, nil
}

// encodeEngineSnapshot serializes one post-iteration state.
func encodeEngineSnapshot(iters int64, topples, absorbed uint64, tileH, tileW int, g *grid.Grid, frontier []int32) []byte {
	var e ckpt.Enc
	e.U32(enginePayload)
	e.U64(uint64(iters))
	e.U64(topples)
	e.U64(absorbed)
	e.U32(uint32(tileH))
	e.U32(uint32(tileW))
	e.U32(uint32(g.H()))
	e.U32(uint32(g.W()))
	for y := 0; y < g.H(); y++ {
		for _, v := range g.Row(y) {
			e.U32(v)
		}
	}
	if len(frontier) > 0 {
		e.U8(1)
		e.I32s(frontier)
	} else {
		e.U8(0)
	}
	return e.Bytes()
}

// restore installs a decoded snapshot: interior cells into g, totals
// into st, and — when the snapshot's tile geometry matches this run's
// — the saved worklist into p.resumeFrontier for the lazy variants.
// The payload is untrusted: one cut off, an iteration count no int can
// hold, or a worklist naming a tile this tiling lacks, is an error
// wrapping ckpt.ErrCorrupt. Nothing is written, g included, until the
// whole payload has checked out.
func (st *ckptState) restore(payload []byte, epoch uint64, g *grid.Grid, p *Params, d Params) error {
	dec := ckpt.NewDec(payload)
	if tag := dec.U32(); tag != enginePayload {
		return fmt.Errorf("engine: snapshot has payload tag %d, want %d", tag, enginePayload)
	}
	iters := dec.U64()
	topples := dec.U64()
	absorbed := dec.U64()
	tileH := int(dec.U32())
	tileW := int(dec.U32())
	h := int(dec.U32())
	w := int(dec.U32())
	if err := dec.Err(); err != nil {
		return fmt.Errorf("engine: snapshot epoch %d: %w", epoch, err)
	}
	if h != g.H() || w != g.W() {
		return fmt.Errorf("engine: snapshot is %dx%d but the run grid is %dx%d (resume needs the same -size)",
			h, w, g.H(), g.W())
	}
	rest := dec.Rest()
	if len(rest) < 4*h*w {
		return fmt.Errorf("engine: snapshot epoch %d holds %d of %d cell bytes: %w", epoch, len(rest), 4*h*w, ckpt.ErrCorrupt)
	}
	cells := rest[:4*h*w]
	dec = ckpt.NewDec(rest[4*h*w:])
	var frontier []int32
	if dec.U8() == 1 {
		frontier = dec.I32s()
	}
	if err := dec.Err(); err != nil {
		return fmt.Errorf("engine: snapshot epoch %d: %w", epoch, err)
	}
	if iters > math.MaxInt {
		return fmt.Errorf("engine: snapshot epoch %d holds iteration %d: %w", epoch, iters, ckpt.ErrCorrupt)
	}
	if iters != epoch {
		return fmt.Errorf("engine: snapshot epoch %d holds iteration %d", epoch, iters)
	}
	if tileH == d.TileH && tileW == d.TileW {
		// Saved under this tiling, so every tile id must name one of
		// its tiles.
		n := grid.NewTiling(h, w, tileH, tileW).NumTiles()
		for _, id := range frontier {
			if id < 0 || int(id) >= n {
				return fmt.Errorf("engine: snapshot epoch %d lists tile %d of %d: %w", epoch, id, n, ckpt.ErrCorrupt)
			}
		}
		p.resumeFrontier = frontier
	}
	cd := ckpt.NewDec(cells)
	for y := 0; y < h; y++ {
		row := g.Row(y)
		for x := range row {
			row[x] = cd.U32()
		}
	}
	st.iters, st.topples, st.absorbed = int(iters), topples, absorbed
	g.ClearHalo()
	return nil
}

// seedResumeFrontier seeds fr with the saved worklist plus each
// tile's 4-neighborhood (the superset argument above). It reports
// false — leaving fr untouched, caller falls back to SeedAll — when
// there is no saved worklist or it does not fit this tiling.
func seedResumeFrontier(fr *grid.Frontier, tl *grid.Tiling, ids []int32, laneOf func(id int) int) bool {
	if len(ids) == 0 {
		return false
	}
	n := tl.NumTiles()
	for _, id := range ids {
		if id < 0 || int(id) >= n {
			return false
		}
	}
	fr.Begin()
	for _, id := range ids {
		fr.Add(id, laneOf(int(id)))
		for _, d := range grid.Dirs {
			if nb := tl.Neighbor(int(id), d); nb >= 0 {
				fr.Add(int32(nb), laneOf(nb))
			}
		}
	}
	fr.Flip()
	return true
}
