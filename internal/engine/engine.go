// Package engine is the EASYPAP-analog execution harness for the
// Abelian-sandpile assignment: it owns the iterate-until-stable loop,
// a registry of named kernel variants (sequential, OpenMP-style
// parallel, tiled, lazy, multi-wave asynchronous, and the specialized
// inner-kernel variant), per-iteration monitoring, and optional task
// tracing.
//
// The registry mirrors EASYPAP's "add a few lines, recompile, and the
// new variant is available on the command line" workflow: variants are
// self-registering and every CLI/bench selects them by name.
package engine

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/ckpt"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sandpile"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Params configures a run.
type Params struct {
	// TileH, TileW set the tile extent for tiled variants; 0 means 32.
	TileH, TileW int
	// Workers is the worker-team size for parallel variants; 0 means
	// GOMAXPROCS.
	Workers int
	// Policy is the loop schedule for parallel variants.
	Policy sched.Policy
	// ChunkSize is the schedule chunk; 0 means 1.
	ChunkSize int
	// MaxIters aborts runaway runs; 0 means sandpile.MaxIterations.
	MaxIters int
	// Recorder, when non-nil, receives one event per executed tile
	// task for iterations in [TraceFrom, TraceTo]; TraceTo == 0 means
	// "to the end".
	Recorder           *trace.Recorder
	TraceFrom, TraceTo int
	// OnIteration, when non-nil, is called after every iteration with
	// live progress — the analog of EASYPAP's real-time monitoring
	// window. It runs on the coordinating goroutine; keep it cheap.
	OnIteration func(IterStats)
	// Obs attaches the observability layer: the worker pool of parallel
	// variants reports per-worker chunk spans and sched.* counters,
	// Run() adds engine.* counters and per-iteration spans on the
	// "engine" track. The zero Sink disables it at no cost.
	Obs obs.Sink
	// Ckpt enables durable checkpoint/restart (see checkpoint.go):
	// Run saves a snapshot whenever the Checkpointer's cadence fires
	// and, when the Checkpointer resumes, restores the newest valid
	// snapshot before executing — a resumed run reaches the byte-
	// identical fixed point, totals included. nil disables.
	Ckpt *ckpt.Checkpointer

	// resumeFrontier is the worklist restored from a snapshot, seeded
	// (with its 4-neighborhood) into the lazy variants' frontier in
	// place of SeedAll. Set only by setupCheckpoint.
	resumeFrontier []int32

	// ctx carries cancellation into the variant loops: parallel
	// variants stop claiming chunks and sequential variants break
	// between iterations once it fires. Set by RunContext; nil means
	// context.Background() (never fires, zero cost).
	ctx context.Context
}

// IterStats is the per-iteration progress reported to OnIteration.
type IterStats struct {
	// Iteration is 1-based.
	Iteration int
	// Changes is the iteration's changed-cell count (synchronous
	// variants) or toppling count (asynchronous variants).
	Changes int
	// ActiveTiles is the number of tiles actually computed this
	// iteration; -1 for untiled variants.
	ActiveTiles int
	// Grid is the state just produced by this iteration. It is valid
	// only during the callback (the engine may reuse the buffer);
	// Clone it to retain a snapshot — this is how animations are
	// captured.
	Grid *grid.Grid

	// frontier lazily yields the worklist this iteration computed
	// (lazy variants only; nil otherwise). Called at most once, only
	// when a checkpoint is actually saved.
	frontier func() []int32
}

func (p Params) withDefaults() Params {
	if p.ctx == nil {
		p.ctx = context.Background()
	}
	if p.TileH <= 0 {
		p.TileH = 32
	}
	if p.TileW <= 0 {
		p.TileW = 32
	}
	if p.MaxIters <= 0 {
		p.MaxIters = sandpile.MaxIterations
	}
	if p.ChunkSize <= 0 {
		p.ChunkSize = 1
	}
	return p
}

func (p Params) traced(iter int) bool {
	if p.Recorder == nil {
		return false
	}
	if iter < p.TraceFrom {
		return false
	}
	return p.TraceTo == 0 || iter <= p.TraceTo
}

// Variant is a named strategy for stabilizing a sandpile in place.
type Variant struct {
	Name        string
	Description string
	// Parallel reports whether the variant uses a worker team.
	Parallel bool
	Run      func(g *grid.Grid, p Params) sandpile.Result
}

var registry = map[string]Variant{}

// Register adds a variant; duplicate names panic at init time, like a
// redefined kernel would fail to link in EASYPAP.
func Register(v Variant) {
	if _, dup := registry[v.Name]; dup {
		panic(fmt.Sprintf("engine: duplicate variant %q", v.Name))
	}
	registry[v.Name] = v
}

// Lookup fetches a variant by name.
func Lookup(name string) (Variant, error) {
	v, ok := registry[name]
	if !ok {
		return Variant{}, fmt.Errorf("engine: unknown variant %q (have %v)", name, Names())
	}
	return v, nil
}

// Names returns all registered variant names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Run looks up and executes a variant on g, which is stabilized in
// place.
func Run(name string, g *grid.Grid, p Params) (sandpile.Result, error) {
	return RunContext(context.Background(), name, g, p)
}

// RunContext is Run with cancellation: once ctx fires, parallel
// variants stop claiming chunks (in-flight tiles finish — the grid is
// never left mid-kernel), sequential variants break between
// iterations, and ctx.Err() is returned alongside the partial result.
// A background context costs nothing on the hot loops.
func RunContext(ctx context.Context, name string, g *grid.Grid, p Params) (sandpile.Result, error) {
	v, err := Lookup(name)
	if err != nil {
		return sandpile.Result{}, err
	}
	p.ctx = ctx
	var cs *ckptState
	if p.Ckpt != nil {
		// Install the checkpoint hook before the tracer wrap so
		// iteration spans include the save cost (the store also emits
		// its own ckpt.save spans).
		cs, err = setupCheckpoint(&p, g)
		if err != nil {
			return sandpile.Result{}, fmt.Errorf("engine: checkpoint: %w", err)
		}
	}
	if tr := p.Obs.Tracer; tr != nil {
		// Piggyback per-iteration spans on the monitor hook: every
		// variant calls OnIteration once per iteration, so each
		// iteration lands as one span on the engine track.
		track := tr.Track("engine", 0, name)
		last := tr.Now()
		user := p.OnIteration
		p.OnIteration = func(st IterStats) {
			now := tr.Now()
			tr.Span(track, "iteration", last, now-last,
				obs.Arg{Key: "iter", Value: int64(st.Iteration)},
				obs.Arg{Key: "changes", Value: int64(st.Changes)},
				obs.Arg{Key: "active_tiles", Value: int64(st.ActiveTiles)})
			last = now
			if user != nil {
				user(st)
			}
		}
	}
	if pr := p.Obs.Progress; pr != nil {
		// Same trick for live progress: every iteration publishes into
		// the /progress stage plus a live gauge (a counter would
		// double-book against the end-of-run engine.iterations total).
		gIter := p.Obs.Metrics.Gauge("engine.iteration")
		user := p.OnIteration
		p.OnIteration = func(st IterStats) {
			gIter.Set(float64(st.Iteration))
			pr.Update("engine",
				obs.F("iteration", float64(st.Iteration)),
				obs.F("changes", float64(st.Changes)),
				obs.F("active_tiles", float64(st.ActiveTiles)))
			if user != nil {
				user(st)
			}
		}
	}
	res, err := runGuarded(name, v, g, p)
	if err != nil {
		return sandpile.Result{}, err
	}
	if cs != nil {
		res.Iterations += cs.iters
		res.Topples += cs.topples
		res.Absorbed += cs.absorbed
		if cs.err != nil {
			return res, fmt.Errorf("engine: checkpoint save: %w", cs.err)
		}
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	if m := p.Obs.Metrics; m != nil {
		m.Counter("engine.runs").Inc()
		m.Counter("engine.iterations").Add(int64(res.Iterations))
		m.Counter("engine.topples").Add(int64(res.Topples))
	}
	return res, nil
}

// runGuarded executes the variant, converting a panic — including a
// worker-body panic that sched.Pool.Run propagated to the caller —
// into an error instead of unwinding through the whole program. The
// grid is left in an unspecified intermediate state on failure.
func runGuarded(name string, v Variant, g *grid.Grid, p Params) (res sandpile.Result, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("engine: variant %q panicked: %v", name, r)
		}
	}()
	return v.Run(g, p), nil
}

func init() {
	Register(Variant{
		Name:        "seq-sync",
		Description: "sequential synchronous steps with an auxiliary array (Fig 2 top)",
		Run:         runSeqSync,
	})
	Register(Variant{
		Name:        "seq-async",
		Description: "sequential in-place asynchronous sweeps (Fig 2 bottom); the oracle",
		Run:         runSeqAsync,
	})
	Register(Variant{
		Name:        "omp-sync",
		Description: "row-parallel synchronous steps under the configured schedule (assignment 1)",
		Parallel:    true,
		Run:         runOmpSync,
	})
	Register(Variant{
		Name:        "tiled-sync",
		Description: "tile-parallel synchronous steps for cache reuse (assignment 2)",
		Parallel:    true,
		Run:         makeTiledEager(false),
	})
	Register(Variant{
		Name:        "lazy-sync",
		Description: "frontier-scheduled synchronous steps: only tiles in the active worklist compute (assignment 2)",
		Parallel:    true,
		Run:         makeLazyFrontier(false),
	})
	Register(Variant{
		Name:        "tiled-sync-inner",
		Description: "tiled-sync with the specialized branch-free kernel on inner tiles (assignment 3)",
		Parallel:    true,
		Run:         makeTiledEager(true),
	})
	Register(Variant{
		Name:        "lazy-sync-inner",
		Description: "lazy-sync with the specialized inner-tile kernel (assignments 2+3)",
		Parallel:    true,
		Run:         makeLazyFrontier(true),
	})
	Register(Variant{
		Name:        "async-waves",
		Description: "in-place asynchronous tiles in four checkerboard waves (race-free multi-wave scheduling)",
		Parallel:    true,
		Run:         runAsyncWavesEager,
	})
	Register(Variant{
		Name:        "lazy-async-waves",
		Description: "async-waves over per-wave frontier worklists: quiescent neighborhoods are never scheduled",
		Parallel:    true,
		Run:         runAsyncWavesFrontier,
	})
}

// runSeqSync is the seq-sync loop: one SyncStep per iteration, with
// per-iteration reporting, the MaxIters cap and cancellation checked
// between iterations.
func runSeqSync(g *grid.Grid, p Params) sandpile.Result {
	p = p.withDefaults()
	before := g.Sum()
	next := grid.New(g.H(), g.W())
	cur := g
	var res sandpile.Result
	for {
		res.Iterations++
		ch := sandpile.SyncStep(cur, next)
		res.Topples += uint64(ch)
		if p.OnIteration != nil {
			p.OnIteration(IterStats{Iteration: res.Iterations, Changes: ch, ActiveTiles: -1, Grid: next})
		}
		cur, next = next, cur
		if ch == 0 || res.Iterations >= p.MaxIters || p.ctx.Err() != nil {
			break
		}
	}
	if cur != g {
		g.CopyFrom(cur)
	}
	g.ClearHalo()
	res.Absorbed = before - g.Sum()
	return res
}

// runSeqAsync is the seq-async loop: one full-grid asynchronous sweep
// per iteration, with the same reporting, cap and cancellation as
// runSeqSync.
func runSeqAsync(g *grid.Grid, p Params) sandpile.Result {
	p = p.withDefaults()
	before := g.Sum()
	var res sandpile.Result
	for {
		res.Iterations++
		t := sandpile.AsyncRegion(g, 0, g.H(), 0, g.W())
		res.Topples += uint64(t)
		if p.OnIteration != nil {
			p.OnIteration(IterStats{Iteration: res.Iterations, Changes: t, ActiveTiles: -1, Grid: g})
		}
		if t == 0 || res.Iterations >= p.MaxIters || p.ctx.Err() != nil {
			break
		}
	}
	g.ClearHalo()
	res.Absorbed = before - g.Sum()
	return res
}

// newVariantPool builds the worker team a parallel variant schedules
// its iterations over, from the run's Params.
func newVariantPool(p Params) *sched.Pool {
	return sched.New(
		sched.WithWorkers(p.Workers),
		sched.WithPolicy(p.Policy),
		sched.WithChunkSize(p.ChunkSize),
		sched.WithObs(p.Obs),
	)
}

// changesStride spaces per-worker change accumulators one cache line
// apart (8 ints = 64 bytes), the same trick sched.Pool uses for its
// busy slots: adjacent workers bouncing one line between cores would
// otherwise serialize the reduction.
const changesStride = 8

// runOmpSync is the first assignment's variant: a plain parallel-for
// over rows, double-buffered, with a barrier per step — the direct
// analog of `#pragma omp parallel for schedule(...)` around the y
// loop.
func runOmpSync(g *grid.Grid, p Params) sandpile.Result {
	p = p.withDefaults()
	pool := newVariantPool(p)
	defer pool.Close()

	before := g.Sum()
	next := grid.New(g.H(), g.W())
	cur := g
	var res sandpile.Result
	changes := make([]int, pool.Workers()*changesStride)
	var c, n *grid.Grid
	body := func(w, lo, hi int) {
		changes[w*changesStride] += sandpile.SyncRegion(c, n, lo, hi, 0, c.W())
	}
	for {
		res.Iterations++
		for w := 0; w < pool.Workers(); w++ {
			changes[w*changesStride] = 0
		}
		c, n = cur, next
		if pool.RunContext(p.ctx, g.H(), body) != nil {
			break
		}
		total := 0
		for w := 0; w < pool.Workers(); w++ {
			total += changes[w*changesStride]
		}
		res.Topples += uint64(total)
		if p.OnIteration != nil {
			p.OnIteration(IterStats{Iteration: res.Iterations, Changes: total, ActiveTiles: -1, Grid: next})
		}
		cur, next = next, cur
		if total == 0 {
			break
		}
		if res.Iterations >= p.MaxIters {
			break
		}
	}
	if cur != g {
		g.CopyFrom(cur)
	}
	g.ClearHalo()
	res.Absorbed = before - g.Sum()
	return res
}

// tileTask computes one tile of a synchronous step, choosing the
// specialized kernel for inner tiles when enabled, and returns the
// number of changed cells.
func tileTask(cur, next *grid.Grid, t grid.Tile, useInner bool) int {
	if useInner && t.Inner(cur) {
		return sandpile.SyncRegionInner(cur, next, t.Y, t.Y+t.H, t.X, t.X+t.W)
	}
	return sandpile.SyncRegion(cur, next, t.Y, t.Y+t.H, t.X, t.X+t.W)
}

// frontierObs resolves the frontier instruments from a sink. Both are
// nil-safe, so the per-iteration updates cost nothing when obs is off.
func frontierObs(p Params) (*obs.Gauge, *obs.Counter) {
	m := p.Obs.Metrics
	if m == nil {
		return nil, nil
	}
	return m.Gauge("engine.frontier_tiles"), m.Counter("engine.tiles_skipped")
}

func makeTiledEager(inner bool) func(*grid.Grid, Params) sandpile.Result {
	return func(g *grid.Grid, p Params) sandpile.Result {
		p = p.withDefaults()
		tl := grid.NewTiling(g.H(), g.W(), p.TileH, p.TileW)
		pool := newVariantPool(p)
		defer pool.Close()

		before := g.Sum()
		next := grid.New(g.H(), g.W())
		cur := g
		nTiles := tl.NumTiles()
		tileChanges := make([]int, nTiles)

		var c, n *grid.Grid
		var doTrace bool
		var iter int
		body := func(w, lo, hi int) {
			for id := lo; id < hi; id++ {
				t := tl.Tile(id)
				var start time.Duration
				if doTrace {
					start = p.Recorder.Now()
				}
				tileChanges[id] = tileTask(c, n, t, inner)
				if doTrace {
					p.Recorder.Record(trace.Event{
						Iteration: iter, Worker: w, Tile: id,
						Start: start, Duration: p.Recorder.Now() - start,
						Cells: t.H * t.W,
					})
				}
			}
		}

		var res sandpile.Result
		for {
			res.Iterations++
			iter = res.Iterations
			doTrace = p.traced(iter)
			c, n = cur, next
			if pool.RunContext(p.ctx, nTiles, body) != nil {
				break
			}
			total := 0
			for _, ch := range tileChanges {
				total += ch
			}
			res.Topples += uint64(total)
			if p.OnIteration != nil {
				p.OnIteration(IterStats{Iteration: iter, Changes: total, ActiveTiles: nTiles, Grid: next})
			}
			cur, next = next, cur
			if total == 0 || res.Iterations >= p.MaxIters {
				break
			}
		}
		if cur != g {
			g.CopyFrom(cur)
		}
		g.ClearHalo()
		res.Absorbed = before - g.Sum()
		return res
	}
}

// makeLazyFrontier builds the worklist-driven lazy synchronous
// variants: each iteration schedules only the compacted frontier of
// active tiles via Pool.RunIndexed, and the next frontier is rebuilt
// from the tiles that changed — every per-iteration cost (scheduling,
// change reduction, wake-up) is O(frontier), not O(grid), and nothing
// in the loop allocates.
//
// Quiescent tiles are neither computed nor copied. Skipping the old
// copyTile pass is sound because of an invariant of the lazy wake-up
// rule: a tile leaves the frontier only after an iteration in which it
// was computed and did not change, at which point the kernel has
// written identical cells into both buffers — so both buffers hold its
// latest state for as long as it stays quiescent, and whichever buffer
// is "cur" when it re-activates (or when the run ends) is already
// fresh. A tile that did change is always re-scheduled the very next
// iteration, overwriting the stale copy in the write buffer before any
// kernel can read it.
//
// Wake-ups are edge-gated: the synchronous kernel reads a neighboring
// tile's cells only through value/Threshold, so a changed tile wakes a
// neighbor only when a cell on the facing edge changed its quotient
// (SyncEdgeMask). A neighbor left asleep keeps provably identical
// inputs — its own cells are untouched and every facing edge's
// contribution is unchanged since it last computed — so its output
// could not differ. This is what stops the avalanche front from
// fruitlessly recomputing every quiescent tile bordering a toppling
// one, iteration after iteration, until the wave actually reaches the
// shared edge.
func makeLazyFrontier(inner bool) func(*grid.Grid, Params) sandpile.Result {
	return func(g *grid.Grid, p Params) sandpile.Result {
		p = p.withDefaults()
		tl := grid.NewTiling(g.H(), g.W(), p.TileH, p.TileW)
		pool := newVariantPool(p)
		defer pool.Close()

		before := g.Sum()
		next := grid.New(g.H(), g.W())
		cur := g
		nTiles := tl.NumTiles()
		tileChanges := make([]int, nTiles)
		tileEdges := make([]uint8, nTiles)
		fr := grid.NewFrontier(nTiles, 1)
		if seedResumeFrontier(fr, tl, p.resumeFrontier, func(int) int { return 0 }) {
			// Resuming on a partial frontier: tiles outside it will
			// never be computed into `next`, so restore the two-buffer
			// coherence invariant up front by cloning the restored
			// state into the write buffer.
			next.CopyFrom(g)
		} else {
			fr.SeedAll(nil)
		}
		gFrontier, cSkipped := frontierObs(p)

		var c, n *grid.Grid
		var doTrace bool
		var iter int
		body := func(w int, ids []int32) {
			for _, id32 := range ids {
				id := int(id32)
				t := tl.Tile(id)
				var start time.Duration
				if doTrace {
					start = p.Recorder.Now()
				}
				ch := tileTask(c, n, t, inner)
				tileChanges[id] = ch
				if ch > 0 {
					tileEdges[id] = sandpile.SyncEdgeMask(c, n, t.Y, t.Y+t.H, t.X, t.X+t.W)
				}
				if doTrace {
					p.Recorder.Record(trace.Event{
						Iteration: iter, Worker: w, Tile: id,
						Start: start, Duration: p.Recorder.Now() - start,
						Cells: t.H * t.W,
					})
				}
			}
		}

		var res sandpile.Result
		for {
			res.Iterations++
			iter = res.Iterations
			doTrace = p.traced(iter)
			c, n = cur, next
			active := fr.Active()
			gFrontier.Set(float64(len(active)))
			cSkipped.Add(int64(nTiles - len(active)))
			if pool.RunIndexedContext(p.ctx, active, body) != nil {
				break
			}
			total := 0
			for _, id := range active {
				total += tileChanges[id]
			}
			res.Topples += uint64(total)
			if p.OnIteration != nil {
				p.OnIteration(IterStats{Iteration: iter, Changes: total, ActiveTiles: len(active), Grid: next,
					frontier: func() []int32 { return active }})
			}
			cur, next = next, cur
			if total == 0 || res.Iterations >= p.MaxIters {
				break
			}
			// A changed tile reruns; a neighbor reruns only if the
			// facing edge changed its outward contribution.
			fr.Begin()
			for _, id := range active {
				if tileChanges[id] == 0 {
					continue
				}
				fr.Add(id, 0)
				for _, d := range grid.Dirs {
					if tileEdges[id]&d != 0 {
						if nbID := tl.Neighbor(int(id), d); nbID >= 0 {
							fr.Add(int32(nbID), 0)
						}
					}
				}
			}
			fr.Flip()
		}
		if cur != g {
			g.CopyFrom(cur)
		}
		g.ClearHalo()
		res.Absorbed = before - g.Sum()
		return res
	}
}

// checkWaveTiles validates the wave variants' minimum tile extent:
// same-wave tiles write one cell past their borders, and a ≥2-cell gap
// tile between them keeps those fringes disjoint.
func checkWaveTiles(p Params) {
	if p.TileH < 2 || p.TileW < 2 {
		panic("engine: async wave variants require tiles of at least 2x2 cells")
	}
}

func runAsyncWavesEager(g *grid.Grid, p Params) sandpile.Result {
	p = p.withDefaults()
	checkWaveTiles(p)
	tl := grid.NewTiling(g.H(), g.W(), p.TileH, p.TileW)
	pool := newVariantPool(p)
	defer pool.Close()

	before := g.Sum()
	waves := tl.Waves()
	nTiles := tl.NumTiles()
	topples := make([]int, nTiles)

	var wv []int
	var doTrace bool
	var iter int
	body := func(w, lo, hi int) {
		for k := lo; k < hi; k++ {
			id := wv[k]
			t := tl.Tile(id)
			var start time.Duration
			if doTrace {
				start = p.Recorder.Now()
			}
			topples[id] = sandpile.AsyncRegion(g, t.Y, t.Y+t.H, t.X, t.X+t.W)
			if doTrace {
				p.Recorder.Record(trace.Event{
					Iteration: iter, Worker: w, Tile: id,
					Start: start, Duration: p.Recorder.Now() - start,
					Cells: t.H * t.W,
				})
			}
		}
	}

	var res sandpile.Result
	for {
		res.Iterations++
		iter = res.Iterations
		doTrace = p.traced(iter)
		cancelled := false
		for _, wave := range waves {
			if len(wave) == 0 {
				continue
			}
			wv = wave
			if pool.RunContext(p.ctx, len(wv), body) != nil {
				cancelled = true
				break
			}
		}
		if cancelled {
			break
		}
		total := 0
		for _, tp := range topples {
			total += tp
		}
		res.Topples += uint64(total)
		if p.OnIteration != nil {
			p.OnIteration(IterStats{Iteration: iter, Changes: total, ActiveTiles: nTiles, Grid: g})
		}
		if total == 0 || res.Iterations >= p.MaxIters {
			break
		}
	}
	g.ClearHalo()
	res.Absorbed = before - g.Sum()
	return res
}

// facingUnstable reports whether neighbor tile t, lying in direction d
// from a toppled tile, has an unstable cell on the edge line facing
// the toppler. Asynchronous topples push grains only into directly
// adjacent cells, so this line is the only place an asleep neighbor
// can have been destabilized from that side.
func facingUnstable(g *grid.Grid, t grid.Tile, d uint8) bool {
	switch d {
	case grid.DirUp: // neighbor above: its bottom row faces us
		return sandpile.RegionUnstable(g, t.Y+t.H-1, t.Y+t.H, t.X, t.X+t.W)
	case grid.DirDown: // neighbor below: its top row
		return sandpile.RegionUnstable(g, t.Y, t.Y+1, t.X, t.X+t.W)
	case grid.DirLeft: // neighbor left: its right column
		return sandpile.RegionUnstable(g, t.Y, t.Y+t.H, t.X+t.W-1, t.X+t.W)
	default: // neighbor right: its left column
		return sandpile.RegionUnstable(g, t.Y, t.Y+t.H, t.X, t.X+1)
	}
}

// runAsyncWavesFrontier is the lazy multi-wave variant over per-wave
// frontier worklists: one frontier lane per checkerboard wave, so each
// wave schedules only its active tiles and the wake-up rebuild is
// O(frontier). The kernel is in-place (single buffer), so unlike the
// synchronous variants there is no coherence question at all — skipped
// tiles are simply untouched memory. Wake-ups are edge-gated: a
// toppled tile wakes a neighbor only when the neighbor's facing edge
// line actually holds an unstable cell — a stable tile stays stable
// until grains arriving on a boundary line push some cell to the
// threshold, and every arrival re-runs this check.
func runAsyncWavesFrontier(g *grid.Grid, p Params) sandpile.Result {
	p = p.withDefaults()
	checkWaveTiles(p)
	tl := grid.NewTiling(g.H(), g.W(), p.TileH, p.TileW)
	pool := newVariantPool(p)
	defer pool.Close()

	before := g.Sum()
	nTiles := tl.NumTiles()
	topples := make([]int, nTiles)
	fr := grid.NewFrontier(nTiles, 4)
	if !seedResumeFrontier(fr, tl, p.resumeFrontier, tl.Wave) {
		fr.SeedAll(func(id int32) int { return tl.Wave(int(id)) })
	}
	gFrontier, cSkipped := frontierObs(p)

	var doTrace bool
	var iter int
	body := func(w int, ids []int32) {
		for _, id32 := range ids {
			id := int(id32)
			t := tl.Tile(id)
			var start time.Duration
			if doTrace {
				start = p.Recorder.Now()
			}
			topples[id] = sandpile.AsyncRegion(g, t.Y, t.Y+t.H, t.X, t.X+t.W)
			if doTrace {
				p.Recorder.Record(trace.Event{
					Iteration: iter, Worker: w, Tile: id,
					Start: start, Duration: p.Recorder.Now() - start,
					Cells: t.H * t.W,
				})
			}
		}
	}

	var res sandpile.Result
	for {
		res.Iterations++
		iter = res.Iterations
		doTrace = p.traced(iter)
		activeTiles := fr.Len()
		gFrontier.Set(float64(activeTiles))
		cSkipped.Add(int64(nTiles - activeTiles))
		cancelled := false
		for k := 0; k < fr.Lanes(); k++ {
			if pool.RunIndexedContext(p.ctx, fr.Lane(k), body) != nil {
				cancelled = true
				break
			}
		}
		if cancelled {
			break
		}
		total := 0
		for k := 0; k < fr.Lanes(); k++ {
			for _, id := range fr.Lane(k) {
				total += topples[id]
			}
		}
		res.Topples += uint64(total)
		if p.OnIteration != nil {
			p.OnIteration(IterStats{Iteration: iter, Changes: total, ActiveTiles: activeTiles, Grid: g,
				frontier: func() []int32 {
					var ids []int32
					for k := 0; k < fr.Lanes(); k++ {
						ids = append(ids, fr.Lane(k)...)
					}
					return ids
				}})
		}
		if total == 0 || res.Iterations >= p.MaxIters {
			break
		}
		fr.Begin()
		for k := 0; k < fr.Lanes(); k++ {
			for _, id := range fr.Lane(k) {
				if topples[id] == 0 {
					continue
				}
				fr.Add(id, k)
				for _, d := range grid.Dirs {
					nbID := tl.Neighbor(int(id), d)
					if nbID >= 0 && facingUnstable(g, tl.Tile(nbID), d) {
						fr.Add(int32(nbID), tl.Wave(nbID))
					}
				}
			}
		}
		fr.Flip()
	}
	g.ClearHalo()
	res.Absorbed = before - g.Sum()
	return res
}
