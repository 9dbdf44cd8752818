package wfsched

import (
	"errors"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/platform"
	"repro/internal/workflow"
)

func splitBase() Scenario {
	base, _ := Tab1Base()
	base.Workflow = workflow.Montage(workflow.MontageParams{Projections: 30})
	return base
}

func TestSplitWithEmptyBMatchesHomogeneous(t *testing.T) {
	base := splitBase()
	ps := platform.DefaultPStates()
	for _, cfg := range []ClusterConfig{{8, 6}, {16, 3}, {4, 0}} {
		uniform := SimulateCluster(base, ps, cfg)
		split := SimulateSplitCluster(base, ps, SplitConfig{A: cfg})
		if math.Abs(uniform.Makespan-split.Makespan) > 1e-9 {
			t.Fatalf("%v: makespan %.3f vs %.3f", cfg, uniform.Makespan, split.Makespan)
		}
		if math.Abs(uniform.CO2-split.CO2) > 1e-6 {
			t.Fatalf("%v: CO2 %.4f vs %.4f", cfg, uniform.CO2, split.CO2)
		}
	}
}

func TestSplitDeterministic(t *testing.T) {
	base := splitBase()
	ps := platform.DefaultPStates()
	cfg := SplitConfig{A: ClusterConfig{8, 6}, B: ClusterConfig{8, 2}}
	a := SimulateSplitCluster(base, ps, cfg)
	b := SimulateSplitCluster(base, ps, cfg)
	if a != b {
		t.Fatalf("split simulation not deterministic: %v vs %v", a, b)
	}
}

func TestSplitFasterGroupPreferred(t *testing.T) {
	// One fast node + many slow nodes must beat many slow nodes alone
	// on makespan: the serial levels ride the fast node.
	base := splitBase()
	ps := platform.DefaultPStates()
	slowOnly := SimulateSplitCluster(base, ps, SplitConfig{A: ClusterConfig{16, 0}})
	mixed := SimulateSplitCluster(base, ps, SplitConfig{A: ClusterConfig{16, 0}, B: ClusterConfig{1, 6}})
	if mixed.Makespan >= slowOnly.Makespan {
		t.Fatalf("adding a fast node did not help: %.1f vs %.1f", mixed.Makespan, slowOnly.Makespan)
	}
}

func TestSplitRespectsWorkBound(t *testing.T) {
	base := splitBase()
	ps := platform.DefaultPStates()
	cfg := SplitConfig{A: ClusterConfig{8, 6}, B: ClusterConfig{8, 0}}
	out := SimulateSplitCluster(base, ps, cfg)
	capacity := 8*ps[6].Speed + 8*ps[0].Speed
	if bound := base.Workflow.TotalGflop() / capacity; out.Makespan < bound-1e-9 {
		t.Fatalf("makespan %.2f below work bound %.2f", out.Makespan, bound)
	}
	if out.CO2 <= 0 || out.TasksLocal != base.Workflow.NumTasks() {
		t.Fatalf("accounting broken: %+v", out)
	}
}

func TestSplitPanicsWithoutGroupA(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("empty group A accepted")
		}
	}()
	SimulateSplitCluster(splitBase(), platform.DefaultPStates(), SplitConfig{})
}

func TestHeterogeneousAblationNeverWorse(t *testing.T) {
	base := splitBase()
	res, err := HeterogeneousAblation(base, 24, 150)
	if err != nil {
		t.Fatal(err)
	}
	if res.SplitOutcome.CO2 > res.HomogeneousOutcome.CO2+1e-9 {
		t.Fatalf("split optimum (%.2fg) worse than homogeneous (%.2fg); the split space contains homogeneous",
			res.SplitOutcome.CO2, res.HomogeneousOutcome.CO2)
	}
	if res.SplitOutcome.Makespan > 150 || res.HomogeneousOutcome.Makespan > 150 {
		t.Fatal("ablation returned bound-violating configs")
	}
	if res.Split.String() == "" || res.Homogeneous.String() == "" {
		t.Fatal("empty config strings")
	}
}

func TestHeterogeneousAblationInfeasibleBound(t *testing.T) {
	if _, err := HeterogeneousAblation(splitBase(), 8, 0.001); err == nil {
		t.Fatal("impossible bound accepted")
	}
}

func TestSplitConfigString(t *testing.T) {
	s := SplitConfig{A: ClusterConfig{8, 6}, B: ClusterConfig{4, 1}}
	if s.String() != "8 nodes @ p6 + 4 nodes @ p1" {
		t.Fatalf("String = %q", s.String())
	}
	homog := SplitConfig{A: ClusterConfig{8, 6}}
	if homog.String() != "8 nodes @ p6" {
		t.Fatalf("homogeneous String = %q", homog.String())
	}
}

// TestHeterogeneousAblationRejectsFaults: the split cluster runs
// fault-free, so a faulty base would compare unlike runs (and could
// exhaust its attempts cap in the homogeneous half).
func TestHeterogeneousAblationRejectsFaults(t *testing.T) {
	base := splitBase()
	base.Faults = &fault.Plan{Seed: 1, HostFail: 0.9, Retry: fault.RetryPolicy{MaxAttempts: 1}}
	if _, err := HeterogeneousAblation(base, 8, 1e9); !errors.Is(err, ErrAblationFaults) {
		t.Fatalf("err = %v, want ErrAblationFaults", err)
	}
}
