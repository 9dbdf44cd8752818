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
// A backup is a second dispatch of the running attempt on the shared
// dispatcher (dispatch.go), which keeps the first completion and drops
// the late one; in every other respect — retries, faults, spill, the
// out-of-core shuffle — a speculative run is a plain run. Stragglers do not occur naturally in an in-memory engine, so the
// config exposes an injection hook (InjectDelay) used by tests and
// benchmarks to create them deterministically.

import (
	"context"
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
	return j.execute(context.Background(), splitInputs(inputs, j.Config.MapTasks), len(inputs), spec, nil)
}
