package mapreduce

// naive.go retains the pre-sorted-run shuffle — a serial per-partition
// hash-group (map[K]int index) followed by a post-hoc sort.Slice —
// behind Config.ReferenceShuffle. It is the oracle the randomized
// equivalence test diffs the merge pipeline against, and the baseline
// the BenchmarkWordCount1M*Naive benchmarks measure the speedup over.
// It produces byte-identical outputs (its grouping is insensitive to
// the map side now handing it sorted runs) but pays the costs the
// sorted-run pipeline was built to remove: one goroutine doing every
// partition's grouping, a hash-map index per partition, a materialized
// group table, and a full re-sort of keys the runs already had in
// order.

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/fault"
	"repro/internal/obs"
)

func (j *Job[I, K, V, O]) naiveReducePhase(ctx context.Context, mapOut [][]run[K, V], cfg Config[K], inj *fault.Injector) ([]O, Stats, error) {
	var stats Stats
	type group struct {
		key    K
		values []V
	}
	tr := cfg.Obs.Tracer
	hGroup := cfg.Obs.Metrics.Histogram("mapreduce.group_size", nil) // nil-safe
	shufTS := tr.Now()
	partGroups := make([][]group, cfg.ReduceTasks)
	for p := 0; p < cfg.ReduceTasks; p++ {
		idx := map[K]int{}
		var groups []group
		for t := range mapOut {
			r := &mapOut[t][p]
			for si, key := range r.keys {
				g, ok := idx[key]
				if !ok {
					g = len(groups)
					idx[key] = g
					groups = append(groups, group{key: key})
				}
				span := r.vals[r.offs[si]:r.offs[si+1]]
				groups[g].values = append(groups[g].values, span...)
				stats.CombineOutputs += len(span)
			}
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].key < groups[b].key })
		partGroups[p] = groups
		stats.ReduceGroups += len(groups)
		for _, g := range groups {
			hGroup.Observe(float64(len(g.values)))
		}
	}
	if tr != nil {
		tr.Span(tr.Track("mapreduce-shuffle", 0, "shuffle"),
			"shuffle", shufTS, tr.Now()-shufTS,
			obs.Arg{Key: "groups", Value: int64(stats.ReduceGroups)})
	}

	var (
		retries int64
		statsMu sync.Mutex
	)
	partOut := make([][]O, cfg.ReduceTasks)
	err := runTasks(ctx, cfg.ReduceTasks, cfg.Parallelism, func(p int) error {
		redTS := tr.Now()
		defer func() {
			if tr != nil {
				tr.Span(tr.Track("mapreduce-reduce", p, fmt.Sprintf("reduce %d", p)),
					"reduce", redTS, tr.Now()-redTS,
					obs.Arg{Key: "groups", Value: int64(len(partGroups[p]))})
			}
		}()
		var out []O
		emit := func(o O) { out = append(out, o) }
		for gi, g := range partGroups[p] {
			attempts, err := retryTask(ctx, cfg.MaxAttempts, cfg.RetryBackoff,
				retrySeed(cfg), fmt.Sprintf("reduce:%d:%d", p, gi), func(attempt int) error {
					if inj.TaskFails("reduce", attempt, p, gi) {
						return fault.ErrInjected
					}
					checkpoint := len(out)
					if err := j.Reduce(g.key, g.values, emit); err != nil {
						out = out[:checkpoint] // discard partial emissions
						return err
					}
					return nil
				})
			statsMu.Lock()
			retries += int64(attempts - 1)
			statsMu.Unlock()
			if err != nil {
				return fmt.Errorf("mapreduce: reduce partition %d key %v: %w", p, g.key, err)
			}
		}
		partOut[p] = out
		return nil
	})
	if err != nil {
		stats.TaskRetries = int(retries)
		return nil, stats, err
	}

	var out []O
	for _, po := range partOut {
		out = append(out, po...)
	}
	stats.TaskRetries = int(retries)
	return out, stats, nil
}
