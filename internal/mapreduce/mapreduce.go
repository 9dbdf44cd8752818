// Package mapreduce implements the three-phase MapReduce programming
// model (Dean & Ghemawat 2008) that the Warming-Stripes assignment
// teaches: a map phase over input splits, a group-by-keys shuffle, and
// a reduce phase — plus the pieces a real runtime has and the course
// discusses: hash partitioning, combiners, counters, configurable map
// and reduce parallelism, and bounded task retry. Every way of running
// a job — Run, RunSpeculative, RunStreamingPipeline and RunFleet —
// hands its tasks to one dispatcher (dispatch.go) and differs only in
// where attempts execute: goroutines here or fleet worker processes.
//
// The shuffle pairs Spark's map-side grouping with Hadoop's reduce-side
// merge: each map task groups its pairs by key as they are emitted
// (collect.go), sorts only the distinct keys into per-partition runs
// inside the parallel map phase (combiner applied per key), and the
// reduce phase k-way merges a partition's runs in one streaming pass
// that feeds equal keys directly into the reducer — partitions
// concurrently, no reduce-side hash grouping, no global re-sort
// (merge.go; the retired hash-group shuffle survives in naive.go as a
// validation oracle). NaN keys are refused at emit (ErrNaNKey).
//
// The engine is deliberately deterministic: reduce input groups are
// ordered by key, and within a group values appear in (map-task,
// emission) order, so every job result is reproducible regardless of
// the worker interleaving. A Hadoop-Streaming-style line-oriented
// front end is provided in streaming.go.
package mapreduce

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/fault"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// KV is one key/value pair flowing between phases.
type KV[K cmp.Ordered, V any] struct {
	Key   K
	Value V
}

// Mapper transforms one input record into zero or more intermediate
// pairs via emit. Returning an error fails the map task (it will be
// retried up to Config.MaxAttempts times).
type Mapper[I any, K cmp.Ordered, V any] func(record I, emit func(K, V)) error

// Reducer folds all values of one key into zero or more outputs via
// emit. The values slice is owned by the caller; reducers must not
// retain it.
type Reducer[K cmp.Ordered, V, O any] func(key K, values []V, emit func(O)) error

// Combiner locally pre-reduces the values a single map task emitted
// for one key, producing the (smaller) value list actually shuffled.
// It must be semantically idempotent with respect to the reducer —
// the classic MapReduce combiner contract. The values slice is owned
// by the caller; combiners must not retain it, since its array holds
// the next task's values.
type Combiner[K cmp.Ordered, V any] func(key K, values []V) ([]V, error)

// Partitioner assigns a key to one of nReduce partitions. It must be
// deterministic and return a value in [0, nReduce).
type Partitioner[K cmp.Ordered] func(key K, nReduce int) int

// HashPartitioner is the default: FNV-1a over the key's string form
// ("%v"), Hadoop's HashPartitioner in spirit. Strings and the built-in
// integer kinds hash their form inline, without fmt or boxing; every
// other type (named types, floats) goes through fmt. Both routes give
// the same partition.
func HashPartitioner[K cmp.Ordered](key K, nReduce int) int {
	var digits [20]byte
	var form []byte
	switch k := any(key).(type) {
	case string:
		return int(fnv1a(k) % uint32(nReduce))
	case int, int8, int16, int32, int64:
		form = strconv.AppendInt(digits[:0], int64(keyPrefix(key)^1<<63), 10)
	case uint, uint8, uint16, uint32, uint64, uintptr:
		form = strconv.AppendUint(digits[:0], keyPrefix(key), 10)
	default:
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", key)
		return int(h.Sum32() % uint32(nReduce))
	}
	return int(fnv1a(form) % uint32(nReduce))
}

// fnv1a is 32-bit FNV-1a, the hash/fnv New32a sum, over s.
func fnv1a[S string | []byte](s S) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// Config tunes a job run.
type Config[K cmp.Ordered] struct {
	// MapTasks is the number of map tasks the input is split into;
	// 0 means one task per input chunk as provided.
	MapTasks int
	// ReduceTasks is the number of reduce partitions; 0 means 1.
	ReduceTasks int
	// Parallelism bounds concurrently running tasks; 0 means
	// GOMAXPROCS.
	Parallelism int
	// MaxAttempts is the per-task retry budget; 0 means 1 (no retry).
	MaxAttempts int
	// RetryBackoff is the base sleep between task attempts, growing
	// exponentially (base, 2·base, 4·base, … capped at 32·base) and
	// jittered into the top half of each step so simultaneous failures
	// do not retry in lockstep. The jitter is deterministic per
	// (seed, task, attempt), keeping fault replays exact. The sleep is
	// context-aware — cancellation aborts it immediately.
	// 0 retries back-to-back.
	RetryBackoff time.Duration
	// Partitioner routes keys to reduce partitions; nil means
	// HashPartitioner.
	Partitioner Partitioner[K]
	// Obs attaches the observability layer: map/shuffle/reduce task
	// spans on the "mapreduce-*" tracks, mapreduce.* counters, and a
	// group-size histogram. The zero Sink disables it.
	Obs obs.Sink
	// Faults enables deterministic task-failure injection: map and
	// reduce task attempts fail with the plan's TaskFail probability
	// and are absorbed by the ordinary retry budget (injection
	// defaults MaxAttempts to 3 when left zero). Same seed, same
	// failure schedule, same final output — the retries are invisible
	// except in Stats.TaskRetries. nil disables.
	Faults *fault.Plan
	// ReferenceShuffle selects the retained naive shuffle (serial
	// hash-group per partition plus a post-hoc sort, the pre-sorted-run
	// implementation) instead of the parallel k-way merge pipeline.
	// It exists for validation (the randomized equivalence oracle) and
	// benchmarking; outputs are identical either way. Incompatible with
	// MaxShuffleBytes — the naive shuffle cannot run out-of-core.
	ReferenceShuffle bool
	// MaxShuffleBytes caps the approximate bytes of map output held
	// resident for the shuffle. Once a completed map task would push
	// the account past the cap, its runs are spilled to disk and the
	// reduce phase switches that partition to the multi-pass external
	// merge (external.go). Requires Job.External for the scratch dir
	// and wire codecs. 0 keeps the whole shuffle in memory. Output is
	// byte-identical either way.
	MaxShuffleBytes int64
	// MergeFanIn caps how many runs one external merge pass streams at
	// once (intermediate merged runs are re-spilled until the final
	// pass fits); 0 means 16, values below 2 are treated as 0. Only
	// consulted when MaxShuffleBytes forces spilling.
	MergeFanIn int
}

func (c Config[K]) withDefaults() Config[K] {
	if c.ReduceTasks <= 0 {
		c.ReduceTasks = 1
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 1
		if c.Faults != nil && c.Faults.TaskFail > 0 {
			// Injected failures need retry headroom: the plan's own
			// attempts budget when given, else a small default.
			c.MaxAttempts = 3
			if n := c.Faults.Retry.MaxAttempts; n > 0 {
				c.MaxAttempts = n
			}
		}
	}
	if c.Partitioner == nil {
		c.Partitioner = HashPartitioner[K]
	}
	return c
}

// Counters collect named int64 metrics across tasks, like Hadoop job
// counters. Safe for concurrent use.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: map[string]int64{}} }

// Add increments counter name by delta.
func (c *Counters) Add(name string, delta int64) {
	c.mu.Lock()
	c.m[name] += delta
	c.mu.Unlock()
}

// Get returns the value of counter name (0 if never touched).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// Stats describes an executed job.
type Stats struct {
	MapTasks        int
	ReduceTasks     int
	MapInputs       int // records consumed by mappers
	MapOutputs      int // pairs emitted by mappers
	CombineOutputs  int // pairs after combining (== MapOutputs without a combiner)
	ReduceGroups    int // distinct keys reduced
	Outputs         int // records emitted by reducers
	TaskRetries     int // failed task attempts that were retried
	ShuffleRuns     int // non-empty sorted runs fed to the shuffle merges (0 with ReferenceShuffle)
	MergePasses     int // per-partition k-way merge passes executed (0 with ReferenceShuffle)
	MapTasksResumed int // map tasks restored from spill files instead of executed (0 without Job.Spill)
	SpilledRuns     int // sorted runs written to external run files under the MaxShuffleBytes budget
	// SpilledBytes counts external run-file bytes written, including
	// intermediate multi-pass merge output (0 when nothing spilled).
	SpilledBytes int64
}

// publish adds a finished job's stats to the mapreduce.* counters; the
// spill counters only for a job that could spill.
func (s Stats) publish(m *obs.Registry, external bool) {
	if m == nil {
		return
	}
	m.Counter("mapreduce.tasks.map").Add(int64(s.MapTasks))
	m.Counter("mapreduce.tasks.reduce").Add(int64(s.ReduceTasks))
	m.Counter("mapreduce.records.in").Add(int64(s.MapInputs))
	m.Counter("mapreduce.records.out").Add(int64(s.Outputs))
	m.Counter("mapreduce.groups").Add(int64(s.ReduceGroups))
	m.Counter("mapreduce.retries").Add(int64(s.TaskRetries))
	m.Counter("mapreduce.shuffle.runs").Add(int64(s.ShuffleRuns))
	m.Counter("mapreduce.shuffle.merge_passes").Add(int64(s.MergePasses))
	if external {
		m.Counter("mapreduce.shuffle.spilled_runs").Add(int64(s.SpilledRuns))
		m.Counter("mapreduce.shuffle.spilled_bytes").Add(s.SpilledBytes)
	}
}

// startProgress announces a job's task counts on the progress board.
func startProgress(pr *obs.Progress, maps, reduces int) *obs.Progress {
	pr.Update("mapreduce", obs.F("map_tasks", float64(maps)), obs.F("map_done", 0),
		obs.F("reduce_tasks", float64(reduces)), obs.F("reduce_done", 0))
	return pr
}

// partitionRuns gathers partition p's non-empty runs in map-task order.
func partitionRuns[K cmp.Ordered, V any](mapOut [][]run[K, V], p int) []*run[K, V] {
	runs := make([]*run[K, V], 0, len(mapOut))
	for t := range mapOut {
		if p < len(mapOut[t]) && mapOut[t][p].nkeys() > 0 {
			runs = append(runs, &mapOut[t][p])
		}
	}
	return runs
}

// Job binds the phases of one MapReduce computation.
type Job[I any, K cmp.Ordered, V, O any] struct {
	Name     string
	Map      Mapper[I, K, V]
	Combine  Combiner[K, V] // optional
	Reduce   Reducer[K, V, O]
	Config   Config[K]
	Counters *Counters // optional; created on demand
	// Spill makes map-task output durable: completed tasks persist
	// their sorted runs to Spill.Dir and a re-run of the same job
	// resumes from the first unfinished task (see spill.go). nil
	// keeps everything in memory.
	Spill *Spill[K, V]
	// External supplies the scratch directory and wire codecs for the
	// out-of-core shuffle (external.go); required when
	// Config.MaxShuffleBytes > 0 and ignored otherwise.
	External *External[K, V]
}

// Run executes the job over the input records and returns the reduce
// outputs in deterministic order (reduce partitions in index order,
// keys ascending within each partition).
func (j *Job[I, K, V, O]) Run(inputs []I) ([]O, Stats, error) {
	return j.RunContext(context.Background(), inputs)
}

// RunContext is Run with cancellation: queued tasks are skipped once
// ctx is cancelled and ctx.Err() is returned (already-running task
// attempts finish — map and reduce functions are not interrupted
// mid-record).
func (j *Job[I, K, V, O]) RunContext(ctx context.Context, inputs []I) ([]O, Stats, error) {
	out, stats, err := j.execute(ctx, splitInputs(inputs, j.Config.MapTasks), len(inputs), SpecConfig{}, nil)
	return out, stats.Stats, err
}

// mapResult is a map task's runs, raw emission count, and resume flag.
type mapResult[K cmp.Ordered, V any] struct {
	runs    []run[K, V]
	emitted int
	resumed bool
}

var errNoPhases = errors.New("mapreduce: job needs both Map and Reduce")

// execute is every run: the map phase over splits on the shared
// dispatcher (with speculative backups when spec asks for them), then
// the shuffle and reduce; a non-nil fleet runs both phases' tasks on
// its workers. records is what MapInputs reports.
func (j *Job[I, K, V, O]) execute(ctx context.Context, splits [][]I, records int, spec SpecConfig, fleet *fleetRun[I, K, V, O]) ([]O, SpecStats, error) {
	cfg := j.Config.withDefaults()
	if j.Map == nil || j.Reduce == nil {
		return nil, SpecStats{}, errNoPhases
	}
	if j.Counters == nil {
		j.Counters = NewCounters()
	}
	inj := fault.NewInjector(cfg.Faults, cfg.Obs)
	stats := SpecStats{Stats: Stats{MapTasks: len(splits), ReduceTasks: cfg.ReduceTasks}}
	if j.Spill != nil {
		if err := prepareDir("Spill", j.Spill.Dir, &j.Spill.Codec); err != nil {
			return nil, stats, err
		}
	}
	var ext *extShuffle[K, V]
	if cfg.MaxShuffleBytes > 0 {
		if j.External == nil {
			return nil, stats, errors.New("mapreduce: Config.MaxShuffleBytes needs Job.External (scratch dir + shuffle codecs)")
		}
		if cfg.ReferenceShuffle {
			return nil, stats, errors.New("mapreduce: ReferenceShuffle cannot run out-of-core; unset Config.MaxShuffleBytes")
		}
		var err error
		if ext, err = newExtShuffle(j.External, cfg.MaxShuffleBytes, cfg.MergeFanIn, len(splits), cfg.ReduceTasks); err != nil {
			return nil, stats, err
		}
		defer ext.cleanup()
	}

	// mapOut[task][partition] holds the sorted run task t routed to
	// partition p, kept per-task so the shuffle merge can break key
	// ties by task index for deterministic value ordering.
	mapOut := make([][]run[K, V], len(splits))
	pr := startProgress(cfg.Obs.Progress, len(splits), cfg.ReduceTasks)
	mapDone := 0
	free := make(collectors[K, V], cfg.Parallelism)
	d := newDispatcher(ctx, "map", len(splits), cfg, func(a attempt) (mapResult[K, V], error) {
		return j.mapAttempt(a, splits[a.task], cfg, inj, spec, free)
	}, func(a attempt, r mapResult[K, V]) error {
		mapOut[a.task] = r.runs
		if ext != nil {
			if err := ext.admit(a.task, r.runs); err != nil {
				return err
			}
		}
		stats.MapOutputs += r.emitted
		if r.resumed {
			stats.MapTasksResumed++
		}
		j.Counters.Add("map.outputs", int64(r.emitted))
		mapDone++
		pr.Update("mapreduce", obs.F("map_done", float64(mapDone)))
		return nil
	})
	d.speculate = spec.SpeculationAfter
	fleet.maps(d, splits, cfg.ReduceTasks)
	var err error
	stats.TaskRetries, err = d.dispatch()
	stats.BackupsLaunched, stats.BackupsWon, stats.MapInputs = d.backups, d.wins, records
	if err != nil {
		return nil, stats, err
	}
	out, err := j.reducePhase(ctx, mapOut, cfg, inj, ext, fleet, &stats.Stats)
	if err != nil {
		return nil, stats, err
	}
	stats.Outputs = len(out)
	if ext != nil {
		stats.SpilledRuns = int(ext.spilledRuns.Load())
		stats.SpilledBytes = ext.spilledBytes.Load()
	}
	stats.publish(cfg.Obs.Metrics, ext != nil)
	return out, stats, nil
}

// collectors is a run's free list of map-task collectors. It keeps at
// most Parallelism of them, the tasks the goroutine executor runs at
// once, so a speculative copy past that count builds its own.
type collectors[K cmp.Ordered, V any] chan *collector[K, V]

func (f collectors[K, V]) get() *collector[K, V] {
	select {
	case c := <-f:
		return c
	default:
		return new(collector[K, V])
	}
}

func (f collectors[K, V]) put(c *collector[K, V]) {
	select {
	case f <- c:
	default:
	}
}

// mapAttempt runs one attempt of map task a.task over split: from the
// task's spill file when a valid one exists, else through the mapper
// on a collector from free, persisting the runs when the job spills.
// The runs are on arrays of their own: they outlive the collector's
// next task.
func (j *Job[I, K, V, O]) mapAttempt(a attempt, split []I, cfg Config[K], inj *fault.Injector, spec SpecConfig,
	free collectors[K, V]) (r mapResult[K, V], err error) {
	if spec.InjectDelay != nil {
		time.Sleep(spec.InjectDelay(a.task, a.copy))
	}
	tr, m := cfg.Obs.Tracer, cfg.Obs.Metrics
	ts := tr.Now()
	span := func(name string, args ...obs.Arg) {
		if tr != nil {
			tr.Span(tr.Track("mapreduce-map", a.task, fmt.Sprintf("map task %d", a.task)), name, ts, tr.Now()-ts, args...)
		}
	}
	if j.Spill != nil {
		if r.runs, r.emitted, r.resumed = j.Spill.load(a.task, cfg.ReduceTasks); r.resumed {
			m.Counter("ckpt.spill_resumed").Inc() // nil-safe
			span("map(resumed)", obs.Arg{Key: "emitted", Value: int64(r.emitted)})
			return r, nil
		}
	}
	c := free.get()
	r.runs, r.emitted, err = j.runMapTask(c, nil, a.task, a.n, split, cfg, inj)
	free.put(c)
	span("map", obs.Arg{Key: "records", Value: int64(len(split))}, obs.Arg{Key: "emitted", Value: int64(r.emitted)})
	if err != nil || j.Spill == nil {
		return r, err
	}
	if err = j.Spill.save(a.task, r.runs, r.emitted); err != nil {
		return r, fmt.Errorf("spill: %w", err)
	}
	m.Counter("ckpt.spill_saves").Inc()
	return r, nil
}

// partResult is one reduce partition's output and shuffle shape.
type partResult[O any] struct {
	out                                  []O
	pairs, groups, runs, passes, retries int
}

// reducePhase runs the shuffle and reduce over already-partitioned,
// per-task-sorted map output, one dispatched task per partition;
// within a partition the k-way merge of the task runs streams each
// key's values (in map-task order) directly into the reducer — shuffle
// and reduce are one fused pass with no group materialization. It adds
// to the stats this phase owns: CombineOutputs, ReduceGroups,
// TaskRetries, ShuffleRuns, MergePasses. A non-nil ext routes
// partitions with spilled runs through the multi-pass external merge;
// output and group ordinals are identical to the in-memory path.
func (j *Job[I, K, V, O]) reducePhase(ctx context.Context, mapOut [][]run[K, V], cfg Config[K], inj *fault.Injector,
	ext *extShuffle[K, V], fleet *fleetRun[I, K, V, O], stats *Stats) ([]O, error) {
	if cfg.ReferenceShuffle {
		return j.naiveReducePhase(ctx, mapOut, cfg, inj, stats)
	}
	tr := cfg.Obs.Tracer
	return j.reduceTasks(ctx, cfg, mapOut, fleet, stats, func(p int) (partResult[O], error) {
		ts := tr.Now()
		r, err := j.reducePartition(ctx, p, cfg, inj, func(group groupFunc[K, V]) (int, int, int, int, error) {
			if ext != nil && ext.hasDisk(p) {
				return ext.mergePartition(p, mapOut, group)
			}
			return memMerge(partitionRuns(mapOut, p), group)
		})
		if tr != nil {
			now := tr.Now()
			// Shuffle and reduce are fused, so the per-partition spans
			// cover the same interval on their two tracks; the shuffle
			// span carries the merge shape.
			tr.Span(tr.Track("mapreduce-shuffle", p, fmt.Sprintf("shuffle %d", p)),
				"shuffle", ts, now-ts,
				obs.Arg{Key: "runs", Value: int64(r.runs)},
				obs.Arg{Key: "pairs", Value: int64(r.pairs)},
				obs.Arg{Key: "groups", Value: int64(r.groups)})
			tr.Span(tr.Track("mapreduce-reduce", p, fmt.Sprintf("reduce %d", p)),
				"reduce", ts, now-ts,
				obs.Arg{Key: "groups", Value: int64(r.groups)})
		}
		return r, err
	})
}

// memMerge is the in-memory shuffle of one partition: a single
// k-way merge pass over its runs.
func memMerge[K cmp.Ordered, V any](runs []*run[K, V], group groupFunc[K, V]) (pairs, groups, nRuns, passes int, err error) {
	pairs, groups, err = mergeRuns(runs, group)
	return pairs, groups, len(runs), min(len(runs), 1), err
}

// groupFunc receives one key's values and the group's ordinal within
// its partition.
type groupFunc[K cmp.Ordered, V any] func(key K, values []V, gi int) error

// reducePartition is the body of one reduce task wherever it runs —
// in process, on a fleet worker, or behind the reference shuffle:
// merge streams partition p's groups into the reducer, each group
// retried under cfg's budget with fault injection keyed by (partition,
// group ordinal), and a failed attempt's partial emissions discarded.
func (j *Job[I, K, V, O]) reducePartition(ctx context.Context, p int, cfg Config[K], inj *fault.Injector,
	merge func(groupFunc[K, V]) (pairs, groups, runs, passes int, err error)) (partResult[O], error) {
	var r partResult[O]
	hGroup := cfg.Obs.Metrics.Histogram("mapreduce.group_size", nil) // nil-safe
	emit := func(o O) { r.out = append(r.out, o) }
	var err error
	r.pairs, r.groups, r.runs, r.passes, err = merge(func(key K, values []V, gi int) error {
		hGroup.Observe(float64(len(values)))
		attempts, rerr := retryTask(ctx, cfg.MaxAttempts, cfg.RetryBackoff, retrySeed(cfg),
			func() string { return fmt.Sprintf("reduce:%d:%d", p, gi) }, func(attempt int) error {
				// Guarded: the variadic key escapes, so an unguarded call
				// allocates per group even with injection off.
				if inj != nil && inj.TaskFails("reduce", attempt, p, gi) {
					return fault.ErrInjected
				}
				checkpoint := len(r.out)
				if err := j.Reduce(key, values, emit); err != nil {
					r.out = r.out[:checkpoint] // discard partial emissions
					return err
				}
				return nil
			})
		r.retries += attempts - 1
		if rerr != nil {
			return fmt.Errorf("mapreduce: reduce partition %d key %v: %w", p, key, rerr)
		}
		return nil
	})
	return r, err
}

// reduceTasks dispatches one reduce task per partition (on the fleet
// when one is given) and gathers their outputs in partition order and
// their shapes into stats.
func (j *Job[I, K, V, O]) reduceTasks(ctx context.Context, cfg Config[K], mapOut [][]run[K, V], fleet *fleetRun[I, K, V, O],
	stats *Stats, task func(p int) (partResult[O], error)) ([]O, error) {
	partOut := make([][]O, cfg.ReduceTasks)
	done := 0
	d := newDispatcher(ctx, "reduce", cfg.ReduceTasks, cfg, func(a attempt) (partResult[O], error) {
		return task(a.task)
	}, func(a attempt, r partResult[O]) error {
		partOut[a.task] = r.out
		stats.CombineOutputs += r.pairs
		stats.ReduceGroups += r.groups
		stats.TaskRetries += r.retries
		stats.ShuffleRuns += r.runs
		stats.MergePasses += r.passes
		done++
		cfg.Obs.Progress.Update("mapreduce", obs.F("reduce_done", float64(done)))
		return nil
	})
	fleet.reduces(d, mapOut, cfg.ReduceTasks)
	retries, err := d.dispatch()
	stats.TaskRetries += retries
	var out []O
	for _, po := range partOut {
		out = append(out, po...)
	}
	return out, err
}

// runMapTask executes one attempt of map task t: collector c, reset
// for the task, groups the split's emissions by key as the mapper
// emits them, then builds each partition's sorted, span-compressed
// run (with map-side combining applied per key, so combiner jobs
// shrink data before the shuffle ever sees it). This happens at
// map-task granularity, inside the already-parallel map phase — the
// shuffle then only merges. Injected failures are keyed by (map,
// attempt, task). It returns the per-partition runs, built into out's
// arrays as collector.runs does, and the raw emission count.
func (j *Job[I, K, V, O]) runMapTask(c *collector[K, V], out []run[K, V], t, attempt int, split []I, cfg Config[K],
	inj *fault.Injector) ([]run[K, V], int, error) {
	// Guarded: the variadic key escapes, so an unguarded call allocates
	// per task even with injection off.
	if inj != nil && inj.TaskFails("map", attempt, t) {
		return nil, 0, fault.ErrInjected
	}
	c.reset(cfg.Partitioner, cfg.ReduceTasks)
	for _, rec := range split {
		if err := j.Map(rec, c.emitFn); err != nil {
			return nil, c.emitted, err
		}
	}
	if c.err != nil {
		return nil, c.emitted, c.err
	}
	parts, err := c.runs(j.Combine, out)
	return parts, c.emitted, err
}

// retrySeed picks the jitter seed for a config: the fault plan's seed
// when injection is on (so a replayed plan reproduces the exact retry
// timeline), zero otherwise.
func retrySeed[K cmp.Ordered](cfg Config[K]) int64 {
	if cfg.Faults != nil {
		return cfg.Faults.Seed
	}
	return 0
}

// retryTask runs fn (given the 1-based attempt number) until it
// succeeds or maxAttempts are spent, returning the attempts made and
// the last error. Between attempts it waits backoffDelay keyed by
// key(), built only once a retry is due; a cancelled ctx ends the
// wait, or prevents the next attempt, with ctx.Err(). It retries one
// reduce group inside its reduce task.
func retryTask(ctx context.Context, maxAttempts int, backoff time.Duration, seed int64, key func() string, fn func(attempt int) error) (int, error) {
	for attempt := 1; ; attempt++ {
		if err := fn(attempt); err == nil || attempt >= maxAttempts {
			return attempt, err
		}
		if ctx.Err() != nil {
			return attempt, ctx.Err()
		}
		wait := time.NewTimer(backoffDelay(backoff, seed, key(), attempt))
		select {
		case <-ctx.Done():
			wait.Stop()
			return attempt, ctx.Err()
		case <-wait.C:
		}
	}
}

// backoffDelay is the attempt'th retry delay: base·2^(attempt-1)
// capped at 32·base, scaled by a jitter factor in [0.5, 1.0) so a
// wave of simultaneously failing tasks does not retry in lockstep.
// The jitter is a pure function of (seed, key, attempt) — the same
// deterministic recipe the transport's reconnect backoff uses — so a
// replayed fault schedule reproduces the exact retry timeline.
func backoffDelay(base time.Duration, seed int64, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	return pnet.Backoff{Base: base, Max: base << 5, Seed: seed}.Delay(key, attempt)
}

// splitInputs partitions inputs into n contiguous splits (or one
// record per split when n <= 0 is resolved to len(inputs) capped at
// a sane default).
func splitInputs[I any](inputs []I, n int) [][]I {
	if len(inputs) == 0 {
		return nil
	}
	if n <= 0 {
		n = min(len(inputs), runtime.GOMAXPROCS(0)*4)
	}
	if n > len(inputs) {
		n = len(inputs)
	}
	splits := make([][]I, 0, n)
	base := len(inputs) / n
	extra := len(inputs) % n
	pos := 0
	for i := 0; i < n; i++ {
		size := base
		if i < extra {
			size++
		}
		splits = append(splits, inputs[pos:pos+size])
		pos += size
	}
	return splits
}

// SortOutputs sorts job outputs with the given less function; a
// convenience for callers that want a global order over partitioned
// results.
func SortOutputs[O any](outputs []O, less func(a, b O) bool) {
	slices.SortStableFunc(outputs, func(a, b O) int {
		switch {
		case less(a, b):
			return -1
		case less(b, a):
			return 1
		default:
			return 0
		}
	})
}
