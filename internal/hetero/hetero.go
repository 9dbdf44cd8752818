// Package hetero implements the hybrid CPU+GPU half of the fourth
// sandpile assignment. Go has no OpenCL, so the GPU is replaced by a
// simulated accelerator (per the substitution rule): an executor with
// its own internal parallelism and a fixed per-launch overhead, which
// is exactly the scheduling profile that makes CPU/GPU load balancing
// interesting — the device is fast on big batches and wasteful on
// small ones.
//
// Each iteration the engine splits the active (dirty) tiles between
// the CPU worker pool and the device according to a fraction that a
// throughput-proportional controller adapts online, reproducing the
// "smart dynamic algorithm to load balance between CPUs and GPUs" the
// paper reports the best students built.
package hetero

import (
	"context"
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/sandpile"
	"repro/internal/sched"
	"repro/internal/trace"
)

// DeviceID is the worker id recorded in trace events for tiles the
// simulated accelerator computed; CPU workers use their pool ids
// (0..Workers-1).
const DeviceID = -1

// DeviceProfile describes the simulated accelerator.
type DeviceProfile struct {
	// Workers is the device's internal parallelism (its "compute
	// units"). 0 disables the device entirely.
	Workers int
	// LaunchOverhead is charged once per iteration batch handed to
	// the device, the analog of an OpenCL kernel-launch + transfer
	// cost. It is realized by sleeping, so it shows up in measured
	// throughput just like the real thing would.
	LaunchOverhead time.Duration
}

// Params configures a hybrid run.
type Params struct {
	TileH, TileW int
	// CPUWorkers is the host-side worker-team size; 0 means
	// GOMAXPROCS.
	CPUWorkers int
	Device     DeviceProfile
	// InitialFraction is the starting share of active tiles sent to
	// the device, in [0,1]. Default 0.5.
	InitialFraction float64
	// Adapt disables the controller when false (fixed split).
	Adapt bool
	// MaxIters aborts runaway runs; 0 means sandpile.MaxIterations.
	MaxIters int
	// Recorder, when non-nil, receives one event per computed tile.
	Recorder *trace.Recorder
	// Obs attaches the observability layer: per-iteration batch spans
	// on the "hetero-device"/"hetero-cpu" tracks (the occupancy view),
	// hetero.tiles.* counters, and a hetero.fraction gauge tracking the
	// controller. The zero Sink disables it.
	Obs obs.Sink
	// Faults enables deterministic fault injection: at the plan's
	// StallIter the simulated device stalls mid-launch and the engine
	// degrades gracefully — the device's tiles are reclaimed and
	// drained by the CPU pool, the controller fraction drops to zero,
	// and the rest of the run is CPU-only. nil disables.
	Faults *fault.Plan
}

// Report summarizes a hybrid run.
type Report struct {
	sandpile.Result
	// DeviceTiles and CPUTiles count tile-tasks computed by each side.
	DeviceTiles, CPUTiles int
	// FinalFraction is the controller's device share when the run
	// ended.
	FinalFraction float64
	// DeviceBusy and CPUBusy are the summed wall-clock times each
	// side spent computing.
	DeviceBusy, CPUBusy time.Duration
	// DeviceStalled reports whether an injected stall took the device
	// out of the run; Recoveries counts the degradations (0 or 1).
	DeviceStalled bool
	Recoveries    int
}

func (r Report) String() string {
	s := fmt.Sprintf("%v deviceTiles=%d cpuTiles=%d finalFraction=%.3f",
		r.Result, r.DeviceTiles, r.CPUTiles, r.FinalFraction)
	if r.DeviceStalled {
		s += " deviceStalled"
	}
	return s
}

// run stabilizes g with the hybrid lazy synchronous engine and writes
// the final configuration into g.
func run(g *grid.Grid, p Params) Report {
	rep, err := runContext(context.Background(), g, p)
	if err != nil {
		// Unreachable: only cancellation produces an error, and the
		// background context cannot be cancelled.
		panic(err)
	}
	return rep
}

// runContext is run with cancellation: the iteration loop stops
// promptly once ctx is cancelled and the partial report is returned
// alongside ctx.Err(). The grid is left in a consistent (but
// unconverged) intermediate state.
func runContext(ctx context.Context, g *grid.Grid, p Params) (Report, error) {
	if p.TileH <= 0 {
		p.TileH = 32
	}
	if p.TileW <= 0 {
		p.TileW = 32
	}
	if p.MaxIters <= 0 {
		p.MaxIters = sandpile.MaxIterations
	}
	if p.InitialFraction <= 0 || p.InitialFraction > 1 {
		p.InitialFraction = 0.5
	}
	if p.Device.Workers <= 0 {
		p.InitialFraction = 0
	}

	inj := fault.NewInjector(p.Faults, p.Obs)
	tl := grid.NewTiling(g.H(), g.W(), p.TileH, p.TileW)
	cpu := sched.New(sched.WithWorkers(p.CPUWorkers), sched.WithPolicy(sched.Dynamic), sched.WithChunkSize(1))
	defer cpu.Close()
	var dev *sched.Pool
	if p.Device.Workers > 0 {
		dev = sched.New(sched.WithWorkers(p.Device.Workers), sched.WithPolicy(sched.Dynamic), sched.WithChunkSize(4))
		defer dev.Close()
	}

	before := g.Sum()
	next := grid.New(g.H(), g.W())
	cur := g
	nTiles := tl.NumTiles()
	// The active tiles live in a compacted frontier worklist rebuilt
	// from the changed tiles each iteration, so per-iteration cost
	// scales with the frontier, not the grid. Quiescent tiles are
	// neither computed nor copied: a tile goes quiescent only after a
	// no-change iteration, which leaves both buffers holding identical
	// cells for it (see engine.makeLazyFrontier for the full argument).
	fr := grid.NewFrontier(nTiles, 1)
	fr.SeedAll(nil)
	tileChanges := make([]int, nTiles)
	tileEdges := make([]uint8, nTiles)

	frac := p.InitialFraction
	rep := Report{FinalFraction: frac}

	tr := p.Obs.Tracer
	var devTrack, cpuTrack obs.TrackID
	if tr != nil {
		devTrack = tr.Track("hetero-device", 0, "device")
		cpuTrack = tr.Track("hetero-cpu", 0, "cpu team")
	}
	var cDevTiles, cCPUTiles *obs.Counter
	var cSkipped *obs.Counter
	var gFrac, gFrontier *obs.Gauge
	if m := p.Obs.Metrics; m != nil {
		cDevTiles = m.Counter("hetero.tiles.device")
		cCPUTiles = m.Counter("hetero.tiles.cpu")
		cSkipped = m.Counter("hetero.tiles_skipped")
		gFrac = m.Gauge("hetero.fraction")
		gFrontier = m.Gauge("hetero.frontier_tiles")
		gFrac.Set(frac)
	}

	// Both batch bodies are hoisted out of the loop; the per-iteration
	// state they read (buffers, worklists, iteration) is written before
	// the batches launch and not touched again until both have joined.
	var c, n *grid.Grid
	var iter int
	var devTiles, cpuTiles []int32
	devBody := func(w int, ids []int32) {
		for _, id32 := range ids {
			id := int(id32)
			t := tl.Tile(id)
			var ts time.Duration
			if p.Recorder != nil {
				ts = p.Recorder.Now()
			}
			ch := sandpile.SyncRegion(c, n, t.Y, t.Y+t.H, t.X, t.X+t.W)
			tileChanges[id] = ch
			if ch > 0 {
				tileEdges[id] = sandpile.SyncEdgeMask(c, n, t.Y, t.Y+t.H, t.X, t.X+t.W)
			}
			if p.Recorder != nil {
				p.Recorder.Record(trace.Event{
					Iteration: iter, Worker: DeviceID, Tile: id,
					Start: ts, Duration: p.Recorder.Now() - ts,
					Cells: t.H * t.W,
				})
			}
		}
	}
	cpuBody := func(w int, ids []int32) {
		for _, id32 := range ids {
			id := int(id32)
			t := tl.Tile(id)
			var ts time.Duration
			if p.Recorder != nil {
				ts = p.Recorder.Now()
			}
			ch := sandpile.SyncRegion(c, n, t.Y, t.Y+t.H, t.X, t.X+t.W)
			tileChanges[id] = ch
			if ch > 0 {
				tileEdges[id] = sandpile.SyncEdgeMask(c, n, t.Y, t.Y+t.H, t.X, t.X+t.W)
			}
			if p.Recorder != nil {
				p.Recorder.Record(trace.Event{
					Iteration: iter, Worker: w, Tile: id,
					Start: ts, Duration: p.Recorder.Now() - ts,
					Cells: t.H * t.W,
				})
			}
		}
	}
	done := make(chan time.Duration, 1)
	deviceBatch := func() {
		start := time.Now()
		batchTS := tr.Now()
		time.Sleep(p.Device.LaunchOverhead)
		// Cancellation is handled at the iteration loop's top; the
		// batch itself drains early via the shared abort flag.
		_ = dev.RunIndexedContext(ctx, devTiles, devBody)
		el := time.Since(start)
		if tr != nil {
			tr.Span(devTrack, "device batch", batchTS, el,
				obs.Arg{Key: "iter", Value: int64(iter)},
				obs.Arg{Key: "tiles", Value: int64(len(devTiles))})
		}
		done <- el
	}

	var runErr error
	stalledNow := false
	for {
		if err := ctx.Err(); err != nil {
			runErr = err
			break
		}
		rep.Iterations++
		iter = rep.Iterations

		active := fr.Active()
		gFrontier.Set(float64(len(active)))
		cSkipped.Add(int64(nTiles - len(active)))
		c, n = cur, next
		split := int(frac * float64(len(active)))
		devTiles = active[:split]
		cpuTiles = active[split:]

		if dev != nil && inj.DeviceStall(iter) {
			// The device stalls mid-launch: its tiles for this
			// iteration are reclaimed by the CPU pool (drained below as
			// part of the ordinary CPU batch) and the device never gets
			// work again — graceful degradation to CPU-only.
			cpuTiles = active
			devTiles = nil
			dev = nil
			frac = 0
			gFrac.Set(0)
			rep.DeviceStalled = true
			rep.Recoveries++
			stalledNow = true
		}

		if dev != nil && len(devTiles) > 0 {
			go deviceBatch()
		} else {
			done <- 0
		}

		cpuStart := time.Now()
		cpuTS := tr.Now()
		_ = cpu.RunIndexedContext(ctx, cpuTiles, cpuBody)
		cpuTime := time.Since(cpuStart)
		devTime := <-done
		if tr != nil {
			tr.Span(cpuTrack, "cpu batch", cpuTS, cpuTime,
				obs.Arg{Key: "iter", Value: int64(iter)},
				obs.Arg{Key: "tiles", Value: int64(len(cpuTiles))})
		}
		if stalledNow {
			// The recovery span covers the CPU pool draining the
			// reclaimed device share.
			inj.NoteRecovery("hetero", cpuTS, cpuTime,
				obs.Arg{Key: "iter", Value: int64(iter)},
				obs.Arg{Key: "reclaimed_tiles", Value: int64(len(cpuTiles))})
			stalledNow = false
		}

		rep.DeviceTiles += len(devTiles)
		rep.CPUTiles += len(cpuTiles)
		rep.DeviceBusy += devTime
		rep.CPUBusy += cpuTime
		cDevTiles.Add(int64(len(devTiles)))
		cCPUTiles.Add(int64(len(cpuTiles)))

		if p.Adapt && dev != nil && len(devTiles) > 0 && len(cpuTiles) > 0 &&
			devTime > 0 && cpuTime > 0 {
			// Throughput-proportional rebalancing with damping.
			devRate := float64(len(devTiles)) / devTime.Seconds()
			cpuRate := float64(len(cpuTiles)) / cpuTime.Seconds()
			target := devRate / (devRate + cpuRate)
			frac = 0.5*frac + 0.5*target
			if frac < 0.02 {
				frac = 0.02
			}
			if frac > 0.98 {
				frac = 0.98
			}
			gFrac.Set(frac)
		}

		total := 0
		for _, id := range active {
			total += tileChanges[id]
		}
		rep.Topples += uint64(total)
		cur, next = next, cur
		if total == 0 || rep.Iterations >= p.MaxIters {
			break
		}
		// Lazy wake-up: a changed tile reruns, and wakes a neighbor
		// only when the facing edge changed its outward contribution
		// (see engine.makeLazyFrontier).
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
	rep.FinalFraction = frac
	rep.Absorbed = before - g.Sum()
	return rep, runErr
}
