package wfsched

// search.go implements the decision procedures the assignment walks
// students through: the binary searches of Tab 1 Question 2, the boss
// heuristic of Question 3, and the Tab 2 "treasure hunt" optimizers,
// including the exhaustive search the paper names as future work
// ("we will run our simulator to exhaustively evaluate all possible
// options so as to compute the actual optimal CO2 emission").

import (
	"context"
	"fmt"
	"math"

	"repro/internal/platform"
)

// ClusterConfig is one point of Tab 1's decision space.
type ClusterConfig struct {
	Nodes  int
	PState int // index into the p-state table
}

func (c ClusterConfig) String() string {
	return fmt.Sprintf("%d nodes @ p%d", c.Nodes, c.PState)
}

// Tab1Scenario builds the Tab 1 platform: a cluster-only scenario
// with the given powered-on node count and p-state.
func Tab1Scenario(base Scenario, pstates []platform.PState, cfg ClusterConfig) Scenario {
	sc := base
	sc.LocalNodes = cfg.Nodes
	sc.PState = pstates[cfg.PState]
	sc.CloudVMs = 0
	return sc
}

// SimulateCluster runs the workflow all-local under cfg.
func SimulateCluster(base Scenario, pstates []platform.PState, cfg ClusterConfig) Outcome {
	return Simulate(Tab1Scenario(base, pstates, cfg), AllLocal)
}

// SimulateClusterContext is SimulateCluster with cancellation,
// mirroring SimulateContext's contract.
func SimulateClusterContext(ctx context.Context, base Scenario, pstates []platform.PState, cfg ClusterConfig) (Outcome, error) {
	return SimulateContext(ctx, Tab1Scenario(base, pstates, cfg), AllLocal)
}

// MinNodesUnderBound binary-searches the minimum number of powered-on
// nodes (at the given p-state) whose makespan meets the bound, as Tab
// 1 Question 2 asks. It returns the config and outcome, or ok=false
// if even all maxNodes nodes miss the bound. Makespan is monotone
// non-increasing in the node count under list scheduling of a fixed
// DAG, which is what makes binary search valid here.
func MinNodesUnderBound(base Scenario, pstates []platform.PState, pstate, maxNodes int, bound float64) (ClusterConfig, Outcome, bool) {
	lo, hi := 1, maxNodes
	best := -1
	var bestOut Outcome
	if out := SimulateCluster(base, pstates, ClusterConfig{maxNodes, pstate}); out.Makespan > bound {
		return ClusterConfig{}, out, false
	}
	for lo <= hi {
		mid := (lo + hi) / 2
		out := SimulateCluster(base, pstates, ClusterConfig{mid, pstate})
		if out.Makespan <= bound {
			best, bestOut = mid, out
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return ClusterConfig{best, pstate}, bestOut, true
}

// MinPStateUnderBound finds the lowest p-state index (with the given
// node count) whose makespan meets the bound — the downclocking
// option of Tab 1 Question 2. Binary search applies because makespan
// is non-increasing in p-state speed.
func MinPStateUnderBound(base Scenario, pstates []platform.PState, nodes int, bound float64) (ClusterConfig, Outcome, bool) {
	lo, hi := 0, len(pstates)-1
	best := -1
	var bestOut Outcome
	if out := SimulateCluster(base, pstates, ClusterConfig{nodes, hi}); out.Makespan > bound {
		return ClusterConfig{}, out, false
	}
	for lo <= hi {
		mid := (lo + hi) / 2
		out := SimulateCluster(base, pstates, ClusterConfig{nodes, mid})
		if out.Makespan <= bound {
			best, bestOut = mid, out
			hi = mid - 1
		} else {
			lo = mid + 1
		}
	}
	return ClusterConfig{nodes, best}, bestOut, true
}

// BossHeuristic is Tab 1 Question 3's combined strategy: for every
// p-state, find the minimum node count that meets the bound, then
// keep the (p-state, nodes) pair with the lowest CO2. It subsumes the
// two pure options (p-state fixed at max ≡ power off only; nodes
// fixed at max ≡ downclock only are both evaluated along the way),
// so it can only do better — the lesson of the question.
func BossHeuristic(base Scenario, pstates []platform.PState, maxNodes int, bound float64) (ClusterConfig, Outcome, bool) {
	bestCO2 := math.Inf(1)
	var bestCfg ClusterConfig
	var bestOut Outcome
	found := false
	for p := range pstates {
		cfg, out, ok := MinNodesUnderBound(base, pstates, p, maxNodes, bound)
		if !ok {
			continue
		}
		if out.CO2 < bestCO2 {
			bestCO2, bestCfg, bestOut, found = out.CO2, cfg, out, true
		}
	}
	return bestCfg, bestOut, found
}

// ExhaustiveCluster evaluates every (nodes, p-state) pair and returns
// the bound-feasible config with minimum CO2 — the ground truth the
// heuristics are judged against.
func ExhaustiveCluster(base Scenario, pstates []platform.PState, maxNodes int, bound float64) (ClusterConfig, Outcome, bool) {
	bestCO2 := math.Inf(1)
	var bestCfg ClusterConfig
	var bestOut Outcome
	found := false
	for p := range pstates {
		for n := 1; n <= maxNodes; n++ {
			out := SimulateCluster(base, pstates, ClusterConfig{n, p})
			if out.Makespan > bound {
				continue
			}
			if out.CO2 < bestCO2 {
				bestCO2, bestCfg, bestOut, found = out.CO2, ClusterConfig{n, p}, out, true
			}
		}
	}
	return bestCfg, bestOut, found
}

// FractionResult pairs a placement vector with its outcome.
type FractionResult struct {
	Fractions []float64
	Outcome   Outcome
}

// SweepLevelFraction varies the cloud fraction of one level over the
// given values (all other levels local) — the guided exploration of
// Tab 2's middle questions.
func SweepLevelFraction(sc Scenario, level int, values []float64) []FractionResult {
	depth := len(sc.Workflow.Levels)
	out := make([]FractionResult, 0, len(values))
	for _, v := range values {
		fr := make([]float64, depth)
		fr[level] = v
		res := Simulate(sc, LevelFractions(sc.Workflow, fr))
		out = append(out, FractionResult{fr, res})
	}
	return out
}

// ExhaustiveFractions evaluates every combination of the given
// fraction choices per level and returns the minimum-CO2 assignment —
// the paper's stated future work ("run our simulator to exhaustively
// evaluate all possible options so as to compute the actual optimal
// CO2 emission"), feasible here because the simulator is fast and the
// independent simulations fan out over all CPUs. choices[l] lists the
// allowed fractions for level l; single-task levels are naturally
// restricted to {0, 1} by callers. The number of simulations is the
// product of the choice counts. Ties in CO2 break toward the
// lexicographically smallest fraction vector, keeping the result
// deterministic under parallel evaluation.
func ExhaustiveFractions(sc Scenario, choices [][]float64) FractionResult {
	results := EvaluateFractions(sc, choices)
	best := results[0]
	for _, r := range results[1:] {
		if r.Outcome.CO2 < best.Outcome.CO2 {
			best = r
		}
	}
	return best
}

// GreedyFractions hill-climbs the per-level fractions: starting from
// all-local, it repeatedly applies the single-level fraction change
// that lowers CO2 the most, until no change helps. Far cheaper than
// the exhaustive search and the natural "smart student" strategy of
// the treasure hunt.
func GreedyFractions(sc Scenario, choices [][]float64) (FractionResult, int) {
	res, sims, err := GreedyFractionsContext(context.Background(), sc, choices)
	if err != nil {
		panic(err) // as Simulate does
	}
	return res, sims
}

// GreedyFractionsContext is GreedyFractions with cancellation and
// simulation errors, mirroring SimulateContext's contract.
func GreedyFractionsContext(ctx context.Context, sc Scenario, choices [][]float64) (FractionResult, int, error) {
	depth := len(choices)
	cur := make([]float64, depth)
	best, err := SimulateContext(ctx, sc, LevelFractions(sc.Workflow, cur))
	if err != nil {
		return FractionResult{}, 1, err
	}
	sims := 1
	for {
		improved := false
		bestLevel, bestVal := -1, 0.0
		bestCO2 := best.CO2
		for l := 0; l < depth; l++ {
			for _, v := range choices[l] {
				if v == cur[l] {
					continue
				}
				trial := append([]float64(nil), cur...)
				trial[l] = v
				res, err := SimulateContext(ctx, sc, LevelFractions(sc.Workflow, trial))
				sims++
				if err != nil {
					return FractionResult{}, sims, err
				}
				if res.CO2 < bestCO2 {
					bestCO2, bestLevel, bestVal = res.CO2, l, v
					improved = true
				}
			}
		}
		if !improved {
			return FractionResult{cur, best}, sims, nil
		}
		cur[bestLevel] = bestVal
		if best, err = SimulateContext(ctx, sc, LevelFractions(sc.Workflow, cur)); err != nil {
			return FractionResult{}, sims + 1, err
		}
		sims++
	}
}
