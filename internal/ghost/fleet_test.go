package ghost

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// fleetGrid builds the deterministic test workload used throughout.
func fleetGrid(h, w int) *grid.Grid {
	g := grid.New(h, w)
	for y := 0; y < h; y++ {
		row := g.Row(y)
		for x := 0; x < w; x++ {
			row[x] = uint32((y*31 + x*17) % 9)
		}
	}
	g.Row(h / 2)[w/2] = 64
	return g
}

// runFleetCase solves the workload over a goroutine fleet on the chan
// transport and checks the result byte-matches the sequential solver.
func runFleetCase(t *testing.T, opts []Option, workers func(ctx context.Context, addr string)) Report {
	t.Helper()
	ref := fleetGrid(24, 18)
	want := sandpile.StabilizeSyncSeq(ref)

	g := fleetGrid(24, 18)
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &pnet.FleetConfig{
		Transport: tr,
		Listen:    fmt.Sprintf("ghost-fleet-%s", t.Name()),
		Lease:     300 * time.Millisecond,
	}
	if workers != nil {
		var started sync.Once
		fc.Spawn = func(rank int, addr string) error {
			// One spawn call is enough: the helper launches all ranks.
			started.Do(func() { workers(ctx, addr) })
			return nil
		}
		// The helper's workers redial on their own; let the supervisor
		// wait patiently rather than re-invoking Spawn.
		fc.JoinTimeout = 10 * time.Second
	}
	rep, err := New(g, append(opts, WithFleet(fc))...).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) {
		t.Fatal("fleet fixed point differs from the sequential solver")
	}
	if rep.Topples != want.Topples {
		t.Fatalf("fleet topples %d, want %d", rep.Topples, want.Topples)
	}
	return rep
}

// spawnWorkers launches n rank worker goroutines that dial addr.
func spawnWorkers(tr pnet.Transport, n int) func(ctx context.Context, addr string) {
	return func(ctx context.Context, addr string) {
		for r := 0; r < n; r++ {
			go FleetWorker(ctx, pnet.WorkerConfig{
				Transport: tr, Join: addr, Rank: r,
				Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
				MaxDialAttempts: 1000,
			})
		}
	}
}

func TestFleet1DMatchesSequential(t *testing.T) {
	tr, _ := pnet.New("chan")
	rep := runFleetCase(t, []Option{WithRanks(3), WithWidth(2)}, spawnWorkers(tr, 3))
	if rep.Ranks != 3 || rep.Recoveries != 0 {
		t.Fatalf("report: %+v", rep)
	}
	if rep.OwnedCells == 0 || rep.RedundantCells == 0 {
		t.Fatalf("work accounting missing: %+v", rep)
	}
}

func TestFleet2DMatchesSequential(t *testing.T) {
	tr, _ := pnet.New("chan")
	rep := runFleetCase(t, []Option{WithProcessGrid(2, 3), WithWidth(2)}, spawnWorkers(tr, 6))
	if rep.Ranks != 6 {
		t.Fatalf("report: %+v", rep)
	}
}

// TestFleetMatchesInProcessRun pins the tentpole equality: the fleet
// run and the classic goroutine-rank run agree on every reported
// quantity that is defined for both, for strips and for blocks.
func TestFleetMatchesInProcessRun(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ranks int
		opts  []Option
	}{
		{"strips", 3, []Option{WithRanks(3), WithWidth(2)}},
		{"blocks", 6, []Option{WithProcessGrid(2, 3), WithWidth(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			gIn := fleetGrid(24, 18)
			inRep, err := New(gIn, tc.opts...).Run()
			if err != nil {
				t.Fatal(err)
			}
			tr, _ := pnet.New("chan")
			rep := runFleetCase(t, tc.opts, spawnWorkers(tr, tc.ranks))
			if rep.Iterations != inRep.Iterations || rep.Topples != inRep.Topples ||
				rep.Absorbed != inRep.Absorbed || rep.Exchanges != inRep.Exchanges {
				t.Fatalf("fleet %+v != in-process %+v", rep, inRep)
			}
			// Same decomposition, same rounds: the redundant-compute
			// accounting must agree too.
			if rep.RedundantCells != inRep.RedundantCells || rep.OwnedCells != inRep.OwnedCells {
				t.Fatalf("work accounting: fleet %+v != in-process %+v", rep, inRep)
			}
		})
	}
}

// TestFleetWorkerDeathAndRejoin kills worker incarnations mid-run (by
// cancelling their contexts — the goroutine analogue of SIGKILL) and
// relies on respawn + rejoin re-dispatch; the fixed point must still
// match the sequential solver exactly.
func TestFleetWorkerDeathAndRejoin(t *testing.T) {
	// A tall center pile takes many rounds to spread, so kills land
	// mid-run rather than after the fixed point.
	mk := func() *grid.Grid {
		g := grid.New(40, 30)
		g.Row(20)[15] = 200000
		return g
	}
	ref := mk()
	want := sandpile.StabilizeSyncSeq(ref)

	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var kills atomic.Int64
	var launched sync.Once
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "ghost-fleet-death",
		Lease:       500 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
		Spawn: func(rank int, addr string) error {
			launched.Do(func() { launchCrashyWorkers(ctx, tr, addr, &kills) })
			return nil
		},
	}
	g := mk()
	rep, err := New(g, WithRanks(3), WithWidth(1), WithMaxIters(10_000_000),
		WithFleet(fc)).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("post-crash run diverged: topples %d want %d", rep.Topples, want.Topples)
	}
	if kills.Load() == 0 {
		t.Skip("run finished before any kill landed; nothing exercised")
	}
	if rep.Recoveries == 0 {
		t.Fatalf("killed %d worker incarnations but Recoveries=0", kills.Load())
	}
}

// launchCrashyWorkers starts 3 rank workers; rank 1's first three
// incarnations are killed shortly after starting.
func launchCrashyWorkers(ctx context.Context, tr pnet.Transport, addr string, kills *atomic.Int64) {
	for r := 0; r < 3; r++ {
		go func(rank int) {
			for incarnation := 1; ctx.Err() == nil; incarnation++ {
				wctx, wcancel := context.WithCancel(ctx)
				if rank == 1 && incarnation <= 3 {
					go func(delay time.Duration) {
						time.Sleep(delay)
						kills.Add(1)
						wcancel()
					}(time.Duration(incarnation) * 3 * time.Millisecond)
				}
				FleetWorker(wctx, pnet.WorkerConfig{
					Transport: tr, Join: addr, Rank: rank,
					Backoff:         pnet.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
					MaxDialAttempts: 1000,
				})
				wcancel()
				if rank != 1 || incarnation > 3 {
					return
				}
			}
		}(r)
	}
}

// TestFleetLostRankFallsBackLocally spawns no process for rank 1:
// after MaxRespawns join timeouts the coordinator must declare it lost
// and compute its strip itself, still reaching the exact fixed point.
func TestFleetLostRankFallsBackLocally(t *testing.T) {
	ref := fleetGrid(24, 18)
	want := sandpile.StabilizeSyncSeq(ref)
	g := fleetGrid(24, 18)
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      "ghost-fleet-lost",
		Lease:       200 * time.Millisecond,
		JoinTimeout: 50 * time.Millisecond,
		MaxRespawns: 2,
		Backoff:     pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
		Spawn: func(rank int, addr string) error {
			if rank == 1 {
				return nil // never comes up
			}
			go FleetWorker(ctx, pnet.WorkerConfig{
				Transport: tr, Join: addr, Rank: rank,
				Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond},
				MaxDialAttempts: 1000,
			})
			return nil
		},
	}
	rep, err := New(g, WithRanks(3), WithWidth(2), WithFleet(fc)).RunContext(ctx)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("degraded run diverged: topples %d want %d", rep.Topples, want.Topples)
	}
}

func TestFleetRejectsFaultInjection(t *testing.T) {
	tr, _ := pnet.New("chan")
	g := fleetGrid(12, 12)
	_, err := New(g, WithRanks(2), WithWidth(1),
		WithFleet(&pnet.FleetConfig{Transport: tr, Listen: "ghost-fleet-inj"}),
		WithFaults(&fault.Plan{Seed: 1})).Run()
	if err == nil {
		t.Fatal("fleet+faults accepted")
	}
}
