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

	"repro/internal/fault"
	"repro/internal/obs"
)

func (j *Job[I, K, V, O]) naiveReducePhase(ctx context.Context, mapOut [][]run[K, V], cfg Config[K], inj *fault.Injector, stats *Stats) ([]O, error) {
	type group struct {
		key    K
		values []V
	}
	tr := cfg.Obs.Tracer
	shufTS := tr.Now()
	partGroups := make([][]group, cfg.ReduceTasks)
	total := 0
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
				groups[g].values = append(groups[g].values, r.vals[r.offs[si]:r.offs[si+1]]...)
			}
		}
		sort.Slice(groups, func(a, b int) bool { return groups[a].key < groups[b].key })
		partGroups[p] = groups
		total += len(groups)
	}
	if tr != nil {
		tr.Span(tr.Track("mapreduce-shuffle", 0, "shuffle"),
			"shuffle", shufTS, tr.Now()-shufTS,
			obs.Arg{Key: "groups", Value: int64(total)})
	}

	return j.reduceTasks(ctx, cfg, nil, nil, stats, func(p int) (partResult[O], error) {
		redTS := tr.Now()
		r, err := j.reducePartition(ctx, p, cfg, inj, func(reduce groupFunc[K, V]) (pairs, groups, runs, passes int, err error) {
			for gi, g := range partGroups[p] {
				if err := reduce(g.key, g.values, gi); err != nil {
					return pairs, gi, 0, 0, err
				}
				pairs += len(g.values)
			}
			return pairs, len(partGroups[p]), 0, 0, nil
		})
		if tr != nil {
			tr.Span(tr.Track("mapreduce-reduce", p, fmt.Sprintf("reduce %d", p)),
				"reduce", redTS, tr.Now()-redTS,
				obs.Arg{Key: "groups", Value: int64(len(partGroups[p]))})
		}
		return r, err
	})
}
