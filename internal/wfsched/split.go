package wfsched

// split.go relaxes Tab 1's homogeneity assumption ("all powered on
// nodes operate in the same p-state"). A split cluster runs one group
// of nodes at one p-state and a second group at another; the greedy
// list scheduler prefers the faster free slot. Since the search space
// includes every homogeneous configuration (empty second group), the
// split optimum can only improve on the homogeneous one — the
// ablation quantifies by how much.

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/platform"
)

// SplitConfig is a two-group cluster configuration.
type SplitConfig struct {
	A, B ClusterConfig // B.Nodes may be 0 (homogeneous)
}

func (s SplitConfig) String() string {
	if s.B.Nodes == 0 {
		return s.A.String()
	}
	return fmt.Sprintf("%s + %s", s.A.String(), s.B.String())
}

// SimulateSplitCluster executes the workflow all-local on a cluster
// split into two p-state groups: one site whose slots come in the two
// groups. Ready tasks go to the fastest free slot; when no slot is
// free they wait in a FIFO queue, and a freed slot serves the
// finished task's newly ready children before the queue head (see
// warp.go). The split cluster is simulated fault-free and unobserved:
// base.Faults and base.Obs are ignored.
func SimulateSplitCluster(base Scenario, pstates []platform.PState, cfg SplitConfig) Outcome {
	base = base.withDefaults()
	if base.Workflow == nil {
		panic("wfsched: nil workflow")
	}
	if cfg.A.Nodes <= 0 {
		panic("wfsched: split group A must have nodes")
	}
	group := func(c ClusterConfig) slotGroup {
		ps := pstates[c.PState]
		return slotGroup{c.Nodes, ps.Speed, ps.BusyPower, ps.IdlePower}
	}
	groups := []slotGroup{group(cfg.A)}
	if cfg.B.Nodes > 0 {
		groups = append(groups, group(cfg.B))
	}
	local := newSiteModel("local", base.LocalIntensity, groups...)
	local.readyFirst = true
	base.Faults, base.Obs, base.CloudVMs = nil, obs.Sink{}, 0
	out, err := simulate(context.Background(), base, AllLocal, [2]*siteModel{Local: local})
	if err != nil {
		panic(err) // unreachable: no faults, and the context never ends
	}
	return out
}

// ErrAblationFaults reports a HeterogeneousAblation call with a fault
// plan: the split cluster is simulated fault-free, so its optimum
// would be compared against a faulty homogeneous one.
var ErrAblationFaults = errors.New("wfsched: the heterogeneity ablation simulates fault-free clusters; base.Faults must be nil")

// AblationResult compares the homogeneous and split-cluster optima.
type AblationResult struct {
	Homogeneous        ClusterConfig
	HomogeneousOutcome Outcome
	Split              SplitConfig
	SplitOutcome       Outcome
}

// HeterogeneousAblation finds the bound-feasible minimum-CO2
// configuration in both decision spaces: homogeneous (nodes, p-state)
// and split (two groups, node counts in steps of nodeStep). The split
// space contains every homogeneous point, so SplitOutcome.CO2 ≤
// HomogeneousOutcome.CO2 whenever both are feasible. Both spaces are
// simulated fault-free: a base with Faults set is rejected with
// ErrAblationFaults.
func HeterogeneousAblation(base Scenario, maxNodes int, bound float64) (AblationResult, error) {
	if base.Faults != nil {
		return AblationResult{}, ErrAblationFaults
	}
	pstates := platform.DefaultPStates()
	homCfg, homOut, ok := ExhaustiveCluster(base, pstates, maxNodes, bound)
	if !ok {
		return AblationResult{}, fmt.Errorf("wfsched: bound %.0fs infeasible even homogeneously", bound)
	}
	res := AblationResult{
		Homogeneous: homCfg, HomogeneousOutcome: homOut,
		Split:        SplitConfig{A: homCfg},
		SplitOutcome: homOut,
	}
	const nodeStep = 4
	for pA := range pstates {
		for pB := 0; pB < pA; pB++ {
			for nA := 1; nA <= maxNodes; nA += nodeStep {
				for nB := nodeStep; nA+nB <= maxNodes; nB += nodeStep {
					cfg := SplitConfig{A: ClusterConfig{nA, pA}, B: ClusterConfig{nB, pB}}
					out := SimulateSplitCluster(base, pstates, cfg)
					if out.Makespan > bound {
						continue
					}
					if out.CO2 < res.SplitOutcome.CO2 {
						res.Split, res.SplitOutcome = cfg, out
					}
				}
			}
		}
	}
	return res, nil
}
