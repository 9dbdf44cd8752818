package wfsched

// pareto.go extends the treasure hunt with the time/CO2 trade-off
// analysis: the assignment optimizes CO2 alone, but a student (or
// their hypothetical boss) ultimately faces a bi-objective choice —
// how much execution time must be given up for each gram saved. The
// Pareto frontier over the exhaustive sweep makes that explicit.

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// EvaluateFractions simulates every combination of the per-level
// choices and returns all results in deterministic (mixed-radix
// index) order, fanning the independent simulations out over all
// CPUs. It is the data source for ParetoFrontier and for exhaustive
// optimization over criteria other than CO2.
func EvaluateFractions(sc Scenario, choices [][]float64) []FractionResult {
	results, err := EvaluateFractionsCheckpointed(sc, choices, nil, 0)
	if err != nil {
		panic(err) // as Simulate does
	}
	return results
}

// fractionSpace sizes the mixed-radix placement space and returns the
// index decoder (index -> per-level fractions).
func fractionSpace(choices [][]float64) (total int, decode func(int) []float64) {
	depth := len(choices)
	total = 1
	for _, c := range choices {
		if len(c) == 0 {
			panic("wfsched: empty choice list")
		}
		total *= len(c)
	}
	decode = func(idx int) []float64 {
		fr := make([]float64, depth)
		for l := depth - 1; l >= 0; l-- {
			n := len(choices[l])
			fr[l] = choices[l][idx%n]
			idx /= n
		}
		return fr
	}
	return total, decode
}

// evaluateRange simulates placements [lo, hi) into results, fanning
// out over all CPUs. Entries outside the range are left untouched, so
// a checkpointed sweep can fill the space chunk by chunk. The first
// simulation error (ErrAttemptsExhausted) stops the sweep and is
// returned.
func evaluateRange(sc Scenario, choices [][]float64, results []FractionResult, lo, hi int) error {
	total, decode := fractionSpace(choices)
	next := atomic.Int64{}
	next.Store(int64(lo))
	// Live sweep progress: workers bump a shared completion counter and
	// publish the covered fraction of the whole placement space every
	// pubEvery placements (chunked sweeps resume mid-space, hence lo).
	// All of it is nil-safe no-ops when no Progress reporter is attached.
	var done atomic.Int64
	pr := sc.Obs.Progress
	pubEvery := int64(total / 256)
	if pubEvery < 1 {
		pubEvery = 1
	}
	publish := func(n int64) {
		pr.Update("wfsched",
			obs.F("evaluated", float64(lo)+float64(n)),
			obs.F("total", float64(total)),
			obs.F("sweep_fraction", (float64(lo)+float64(n))/float64(total)))
	}
	if pr != nil {
		publish(0)
	}
	var (
		wg       sync.WaitGroup
		errOnce  sync.Once
		firstErr error
	)
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= hi {
					return
				}
				fr := decode(i)
				out, err := SimulateContext(context.Background(), sc, LevelFractions(sc.Workflow, fr))
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					next.Store(int64(hi)) // stop handing out placements
					return
				}
				results[i] = FractionResult{fr, out}
				if n := done.Add(1); pr != nil && (n%pubEvery == 0 || int(n) == hi-lo) {
					publish(n)
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}

// ParetoFrontier filters results down to the placements that are not
// dominated in (Makespan, CO2): no other placement is at least as
// good on both objectives and strictly better on one. The frontier is
// returned sorted by makespan ascending (hence CO2 descending).
func ParetoFrontier(results []FractionResult) []FractionResult {
	if len(results) == 0 {
		return nil
	}
	sorted := append([]FractionResult(nil), results...)
	sort.SliceStable(sorted, func(i, j int) bool {
		a, b := sorted[i].Outcome, sorted[j].Outcome
		if a.Makespan != b.Makespan {
			return a.Makespan < b.Makespan
		}
		return a.CO2 < b.CO2
	})
	var frontier []FractionResult
	bestCO2 := sorted[0].Outcome.CO2 + 1
	for _, r := range sorted {
		if r.Outcome.CO2 < bestCO2 {
			frontier = append(frontier, r)
			bestCO2 = r.Outcome.CO2
		}
	}
	return frontier
}
