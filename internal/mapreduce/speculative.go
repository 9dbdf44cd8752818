package mapreduce

// speculative.go implements Hadoop-style speculative execution: when a
// map task straggles, a backup attempt of the same task is launched
// and the first attempt to finish wins. Because mappers are required
// to be pure functions of their split, both attempts produce identical
// output and the race is benign — the classic tail-latency defense of
// Dean & Ghemawat's original MapReduce paper, which the course's
// "somewhat dated but still the methodological basis" framing makes
// worth teaching.
//
// Stragglers do not occur naturally in an in-memory engine, so the
// config exposes an injection hook (InjectDelay) used by tests and
// benchmarks to create them deterministically.

import (
	"context"
	"fmt"
	"sync/atomic"
	"time"
)

// SpecConfig tunes speculative execution.
type SpecConfig struct {
	// SpeculationAfter launches a backup attempt for any map task
	// still running after this long. Zero disables speculation.
	SpeculationAfter time.Duration
	// InjectDelay, when non-nil, sleeps the given duration before a
	// map-task attempt runs: attempt 0 is the original, 1 the backup.
	// It exists to create stragglers deterministically in tests.
	InjectDelay func(task, attempt int) time.Duration
}

// SpecStats extends Stats with speculation accounting.
type SpecStats struct {
	Stats
	// BackupsLaunched counts speculative attempts started.
	BackupsLaunched int
	// BackupsWon counts tasks whose backup finished first.
	BackupsWon int
}

// RunSpeculative executes the job like Job.Run but with speculative
// backup attempts for straggling map tasks. The result is identical
// to Job.Run's (mappers must be pure); only the wall-clock behavior
// differs. Both attempts of a task produce the same sorted runs, so
// whichever wins feeds the merge shuffle identically.
func (j *Job[I, K, V, O]) RunSpeculative(inputs []I, spec SpecConfig) ([]O, SpecStats, error) {
	cfg := j.Config.withDefaults()
	if j.Map == nil || j.Reduce == nil {
		return nil, SpecStats{}, fmt.Errorf("mapreduce: job needs both Map and Reduce")
	}
	if j.Counters == nil {
		j.Counters = NewCounters()
	}
	splits := splitInputs(inputs, cfg.MapTasks)
	stats := SpecStats{Stats: Stats{MapTasks: len(splits), ReduceTasks: cfg.ReduceTasks}}

	type taskResult struct {
		parts   []run[K, V]
		emitted int
		err     error
		attempt int
	}
	results := make([]taskResult, len(splits))
	var launched atomic.Int64
	// A task holds its parallelism slot until its first attempt
	// finishes; the backup runs outside the bound, so it never waits on
	// a slot its own straggler holds. Attempt errors travel in results,
	// so runTasks itself cannot fail.
	_ = runTasks(context.Background(), len(splits), cfg.Parallelism, func(t int) error {
		done := make(chan taskResult, 2)
		runAttempt := func(attempt int) {
			if spec.InjectDelay != nil {
				time.Sleep(spec.InjectDelay(t, attempt))
			}
			parts, emitted, _, err := j.runMapTask(context.Background(), t, splits[t], cfg, nil)
			done <- taskResult{parts, emitted, err, attempt}
		}
		go runAttempt(0)
		var late <-chan time.Time
		if spec.SpeculationAfter > 0 {
			late = time.After(spec.SpeculationAfter)
		}
		select {
		case results[t] = <-done:
		case <-late:
			launched.Add(1)
			go runAttempt(1)
			results[t] = <-done
		}
		return nil
	})

	// Aggregate, honoring the winner of each race.
	stats.BackupsLaunched = int(launched.Load())
	mapOut := make([][]run[K, V], len(splits))
	for t, r := range results {
		if r.err != nil {
			return nil, stats, fmt.Errorf("mapreduce: map task %d: %w", t, r.err)
		}
		mapOut[t] = r.parts
		stats.MapOutputs += r.emitted
		stats.MapInputs += len(splits[t])
		if r.attempt == 1 {
			stats.BackupsWon++
		}
		j.Counters.Add("map.outputs", int64(r.emitted))
	}

	outs, redStats, err := j.reducePhase(context.Background(), mapOut, cfg, nil, nil)
	if err != nil {
		return nil, stats, err
	}
	stats.CombineOutputs = redStats.CombineOutputs
	stats.ReduceGroups = redStats.ReduceGroups
	stats.Outputs = len(outs)
	return outs, stats, nil
}
