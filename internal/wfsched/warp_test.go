package wfsched

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workflow"
)

// warpWorkerSweep is the worker grid every oracle below compares
// against the sequential kernel.
var warpWorkerSweep = []int{2, 4, 8}

// assertWarpMatches runs the scenario sequentially and on Time Warp
// at each worker count, asserting bit-identical Outcomes (Outcome is
// all floats and ints, so == is byte equality).
func assertWarpMatches(t *testing.T, name string, sc Scenario, place Placement) {
	t.Helper()
	sc.DESWorkers = 0
	want := Simulate(sc, place)
	for _, workers := range warpWorkerSweep {
		scw := sc
		scw.DESWorkers = workers
		got := Simulate(scw, place)
		if got != want {
			t.Errorf("%s workers=%d: Time Warp diverged from sequential\n got: %+v\nwant: %+v",
				name, workers, got, want)
		}
	}
}

// TestWarpMatchesTab1 pins byte-equality on the Tab 1 platform —
// cluster-only, across node counts and p-states.
func TestWarpMatchesTab1(t *testing.T) {
	base, pstates := Tab1Base()
	for _, nodes := range []int{1, 7, 64} {
		for _, psi := range []int{0, len(pstates) - 1} {
			sc := base
			sc.LocalNodes = nodes
			sc.PState = pstates[psi]
			assertWarpMatches(t, "tab1", sc, AllLocal)
		}
	}
}

// TestWarpMatchesTab2 pins byte-equality on the Tab 2 platform —
// local+cloud with link staging — across placements.
func TestWarpMatchesTab2(t *testing.T) {
	sc := Tab2Scenario()
	w := sc.Workflow
	places := map[string]Placement{
		"all-local": AllLocal,
		"all-cloud": AllCloud,
		"half":      LevelFractions(w, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5}),
		"mixed":     LevelFractions(w, []float64{1, 0.25, 0, 0.75, 0.5, 1, 0, 0.25, 1}),
	}
	for name, place := range places {
		assertWarpMatches(t, "tab2/"+name, sc, place)
	}
}

// TestWarpMatchesWithFaults pins byte-equality under injected host
// failures — kills, repairs, backoff retries, wasted energy — and
// checks the fired-fault schedule (counters) matches too.
func TestWarpMatchesWithFaults(t *testing.T) {
	for _, tc := range []struct {
		name  string
		plan  string
		setup func() (Scenario, Placement)
	}{
		{"tab1-hostfail", "seed=7,hostfail=0.15,repair=4", func() (Scenario, Placement) {
			base, ps := Tab1Base()
			base.LocalNodes = 16
			base.PState = ps[len(ps)-1]
			return base, AllLocal
		}},
		{"tab2-hostfail", "seed=11,hostfail=0.1,repair=6,retrybase=2", func() (Scenario, Placement) {
			sc := Tab2Scenario()
			return sc, LevelFractions(sc.Workflow, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := fault.Parse(tc.plan)
			if err != nil {
				t.Fatal(err)
			}
			sc, place := tc.setup()
			sc.Faults = plan

			faultCounters := func(sc Scenario) (Outcome, map[string]int64) {
				reg := obs.NewRegistry()
				sc.Obs = obs.Sink{Metrics: reg}
				out := Simulate(sc, place)
				return out, map[string]int64{
					"injected": reg.Counter("fault.injected").Value(),
					"hostfail": reg.Counter("fault.host.failures").Value(),
					"retries":  reg.Counter("fault.task.retries").Value(),
				}
			}
			sc.DESWorkers = 0
			want, wantFaults := faultCounters(sc)
			if want.Retries == 0 {
				t.Fatal("fault plan injected nothing; oracle has no teeth")
			}
			for _, workers := range warpWorkerSweep {
				scw := sc
				scw.DESWorkers = workers
				got, gotFaults := faultCounters(scw)
				if got != want {
					t.Errorf("workers=%d: outcome diverged under faults\n got: %+v\nwant: %+v", workers, got, want)
				}
				for k, v := range wantFaults {
					if gotFaults[k] != v {
						t.Errorf("workers=%d: fault counter %s = %d, want %d", workers, k, gotFaults[k], v)
					}
				}
			}
		})
	}
}

// TestWarpMatchesRandomized is the wfsched half of the randomized
// cross-kernel oracle: random workflow shapes, platforms, placements,
// and fault plans, each required byte-identical across the worker
// sweep.
func TestWarpMatchesRandomized(t *testing.T) {
	rng := uint64(0x5EED)
	next := func(n uint64) uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng % n
	}
	for trial := 0; trial < 6; trial++ {
		w := workflow.Montage(workflow.MontageParams{
			Projections: 8 + int(next(40)),
			TargetBytes: 1e9 + float64(next(8))*1e9,
			FlopScale:   0.5 + float64(next(4))*0.5,
		})
		ps := platform.DefaultPStates()
		sc := Scenario{
			Workflow:      w,
			LocalNodes:    1 + int(next(24)),
			PState:        ps[next(uint64(len(ps)))],
			CloudVMs:      int(next(20)), // 0 = no cloud
			VMSpeed:       4 + float64(next(8)),
			VMBusyPower:   120 + float64(next(80)),
			VMIdlePower:   5 + float64(next(20)),
			LinkBandwidth: 10e6 + float64(next(40))*1e6,
			LinkLatency:   float64(next(100)) / 1000,
		}
		var place Placement
		if sc.CloudVMs == 0 {
			place = AllLocal
		} else {
			fr := make([]float64, len(w.Levels))
			for i := range fr {
				fr[i] = float64(next(5)) / 4
			}
			place = LevelFractions(w, fr)
		}
		if next(2) == 0 {
			sc.Faults = &fault.Plan{
				Seed:      int64(next(1 << 30)),
				HostFail:  float64(next(20)) / 100,
				RepairSec: 1 + float64(next(10)),
			}
		}
		assertWarpMatches(t, "randomized", sc, place)
	}
}

// TestWarpMatchesSplit pins byte-equality on E23's split cluster: one
// ready-first site whose slots come in two groups, so rollback
// unwinds two free stacks and the release/drain protocol.
func TestWarpMatchesSplit(t *testing.T) {
	base := splitBase()
	ps := platform.DefaultPStates()
	for _, cfg := range []SplitConfig{
		{A: ClusterConfig{8, 6}, B: ClusterConfig{8, 0}},
		{A: ClusterConfig{3, 2}, B: ClusterConfig{5, 5}},
		{A: ClusterConfig{16, 0}, B: ClusterConfig{1, 6}},
	} {
		base.DESWorkers = 0
		want := SimulateSplitCluster(base, ps, cfg)
		for _, workers := range warpWorkerSweep {
			b := base
			b.DESWorkers = workers
			if got := SimulateSplitCluster(b, ps, cfg); got != want {
				t.Errorf("%v workers=%d: Time Warp diverged from sequential\n got: %+v\nwant: %+v",
					cfg, workers, got, want)
			}
		}
	}
}
