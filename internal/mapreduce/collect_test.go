package mapreduce

import (
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	pnet "repro/internal/net"
)

// checkFastPartitioner compares HashPartitioner against the fmt route
// it must agree with, at partition counts up to the full 32-bit hash.
func checkFastPartitioner[K cmp.Ordered](t *testing.T, keys ...K) {
	t.Helper()
	for _, k := range keys {
		h := fnv.New32a()
		fmt.Fprintf(h, "%v", k)
		for _, n := range []int{1, 3, 8, 1 << 20, math.MaxUint32} {
			if got, want := HashPartitioner(k, n), int(h.Sum32()%uint32(n)); got != want {
				t.Fatalf("HashPartitioner(%T %v, %d) = %d, fmt route gives %d", k, k, n, got, want)
			}
		}
	}
}

type namedKey string

func TestHashPartitionerFastPathMatchesFmt(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	strs := []string{"", "a", "é", "日本語", "\x00", "\xff\xfe", "line\nbreak", strings.Repeat("z", 300)}
	for range 500 {
		b := make([]byte, rng.Intn(24))
		rng.Read(b)
		strs = append(strs, string(b), string([]rune{rune(rng.Intn(0x10ffff))}))
	}
	checkFastPartitioner(t, strs...)
	checkFastPartitioner(t, adversarialKeys...)
	checkFastPartitioner[namedKey](t, "", "fox", "é")

	ints := []int64{0, 1, -1, 9, 10, -10, math.MaxInt64, math.MinInt64}
	for range 200 {
		ints = append(ints, rng.Int63()>>uint(rng.Intn(63)), -rng.Int63()>>uint(rng.Intn(63)))
	}
	for _, v := range ints {
		checkFastPartitioner(t, int(v))
		checkFastPartitioner(t, int8(v))
		checkFastPartitioner(t, int16(v))
		checkFastPartitioner(t, int32(v))
		checkFastPartitioner(t, v)
		checkFastPartitioner(t, uint(v))
		checkFastPartitioner(t, uint8(v))
		checkFastPartitioner(t, uint16(v))
		checkFastPartitioner(t, uint32(v))
		checkFastPartitioner(t, uint64(v))
		checkFastPartitioner(t, uintptr(v))
	}
	checkFastPartitioner(t, uint64(math.MaxUint64))
	checkFastPartitioner(t, 0.0, math.Copysign(0, -1), 1.5, math.Inf(-1))
}

// collectorGoldenJobs are the map-side edge cases whose outputs were
// recorded from the sort-based map side this collector replaced;
// TestCollectorMatchesSortedMapGolden pins them byte for byte.
func collectorGoldenJobs() map[string]func() ([]string, Stats, error) {
	negZero := math.Copysign(0, -1)
	records := make([]int, 40)
	for i := range records {
		records[i] = i
	}
	floats := func(cfg Config[float64], combine Combiner[float64, int]) func() ([]string, Stats, error) {
		return func() ([]string, Stats, error) {
			return (&Job[int, float64, int, string]{
				Config: cfg,
				Map: func(r int, emit func(float64, int)) error {
					// Each task sees both zeros, in both orders.
					if r%2 == 0 {
						emit(0, r)
						emit(negZero, -r)
					} else {
						emit(negZero, r)
						emit(0, -r)
					}
					emit(float64(r%3)-1.5, r)
					return nil
				},
				Combine: combine,
				Reduce: func(k float64, vs []int, emit func(string)) error {
					emit(fmt.Sprintf("%v=%v", k, vs))
					return nil
				},
			}).Run(records)
		}
	}
	words := func(combine Combiner[string, int]) func() ([]string, Stats, error) {
		return func() ([]string, Stats, error) {
			return (&Job[string, string, int, string]{
				Config: Config[string]{MapTasks: 3, ReduceTasks: 3},
				Map: func(line string, emit func(string, int)) error {
					for i, w := range strings.Fields(line) {
						emit(w, i)
					}
					return nil
				},
				Combine: combine,
				Reduce: func(k string, vs []int, emit func(string)) error {
					emit(fmt.Sprintf("%s=%v", k, vs))
					return nil
				},
			}).Run(corpus)
		}
	}
	return map[string]func() ([]string, Stats, error){
		"signed-zeros": floats(Config[float64]{MapTasks: 3, ReduceTasks: 4}, nil),
		"signed-zeros-one-partition": floats(Config[float64]{MapTasks: 3, ReduceTasks: 2,
			Partitioner: func(float64, int) int { return 1 }}, nil),
		"signed-zeros-appending-combiner": floats(Config[float64]{MapTasks: 3, ReduceTasks: 4},
			func(k float64, vs []int) ([]int, error) { return append(vs, len(vs)), nil }),
		// Appending to the input must not clobber the next key's values.
		"appending-combiner": words(func(k string, vs []int) ([]int, error) {
			return append(vs, -len(vs), -1), nil
		}),
		// Rewriting the input in place and returning a prefix of it.
		"in-place-combiner": words(func(k string, vs []int) ([]int, error) {
			vs[0] = len(vs)
			return vs[:1], nil
		}),
		// Partition 0's keys all drop: its run keeps an offsets table
		// of one zero, as a sorted map side left it.
		"dropping-whole-partition": func() ([]string, Stats, error) {
			return (&Job[int, int, int, string]{
				Config: Config[int]{MapTasks: 2, ReduceTasks: 3,
					Partitioner: func(k, n int) int { return k % n }},
				Map: func(r int, emit func(int, int)) error {
					emit(r%7, r)
					return nil
				},
				Combine: func(k int, vs []int) ([]int, error) {
					if k%3 == 0 {
						return nil, nil
					}
					return vs[len(vs)-1:], nil
				},
				Reduce: func(k int, vs []int, emit func(string)) error {
					emit(fmt.Sprintf("%d=%v", k, vs))
					return nil
				},
			}).Run(records)
		},
		// A combiner returning no values drops its key from the run.
		"dropping-combiner": words(func(k string, vs []int) ([]int, error) {
			if len(k)%2 == 0 {
				return nil, nil
			}
			return vs, nil
		}),
	}
}

func TestCollectorMatchesSortedMapGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/collector_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	var golden map[string][2]string
	if err := json.Unmarshal(raw, &golden); err != nil {
		t.Fatal(err)
	}
	jobs := collectorGoldenJobs()
	if len(golden) != len(jobs) {
		t.Fatalf("%d golden outputs for %d jobs", len(golden), len(jobs))
	}
	for name, job := range jobs {
		out, st, err := job()
		got := [2]string{strings.Join(out, "\n"), fmt.Sprintf("%+v %v", st, err)}
		if got != golden[name] {
			t.Errorf("%s:\n got  %q\n want %q", name, got, golden[name])
		}
	}
}

// TestMapErrorBeatsBadPartition: a partition out of range is recorded
// at emit, but the mapper's own error from later in the task wins.
func TestMapErrorBeatsBadPartition(t *testing.T) {
	errMap := errors.New("mapper failed")
	job := wordCountJob(Config[string]{MapTasks: 1, ReduceTasks: 2,
		Partitioner: func(k string, n int) int { return -1 }})
	if _, _, err := job.Run(corpus); err == nil || !strings.Contains(err.Error(), "partitioner returned -1 for 2 partitions") {
		t.Fatalf("bad partition alone: %v", err)
	}
	job.Map = func(line string, emit func(string, int)) error {
		emit("early", 1)
		if line == "the dog barks" {
			return errMap
		}
		return nil
	}
	if _, _, err := job.Run(corpus); !errors.Is(err, errMap) {
		t.Fatalf("Run: %v, want the mapper's error", err)
	}
	if _, _, err := job.RunSpeculative(corpus, SpecConfig{}); !errors.Is(err, errMap) {
		t.Fatalf("RunSpeculative: %v, want the mapper's error", err)
	}
}

// TestRetriedAttemptStartsEmpty: an attempt that fails after emitting
// leaves nothing behind for the retry, under injected faults as well.
func TestRetriedAttemptStartsEmpty(t *testing.T) {
	want, wantStats, err := wordCountJob(Config[string]{MapTasks: 3, ReduceTasks: 2, ReferenceShuffle: true}).Run(corpus)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 8; seed++ {
		failed := map[string]bool{}
		job := wordCountJob(NewConfig(WithMapTasks[string](3), WithReduceTasks[string](2),
			WithMaxAttempts[string](20), WithFaults[string](&fault.Plan{Seed: seed, TaskFail: 0.4})))
		inner := job.Map
		job.Map = func(line string, emit func(string, int)) error {
			if err := inner(line, emit); err != nil || failed[line] {
				return err
			}
			failed[line] = true // every line fails its first attempt, after emitting
			return errTransient
		}
		job.Config.Parallelism = 1 // failed is shared across tasks
		got, stats, err := job.Run(corpus)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(got, want) || stats.MapOutputs != wantStats.MapOutputs {
			t.Fatalf("seed %d: retried run gave %v (%d emitted), want %v (%d)",
				seed, got, stats.MapOutputs, want, wantStats.MapOutputs)
		}
		if stats.TaskRetries == 0 {
			t.Fatalf("seed %d: no retries", seed)
		}
	}
}

// TestMapTaskAllocsIndependentOfEmissions guards the map side against
// per-pair allocation: over a fixed 100-key vocabulary, 10x the
// emissions may cost only the slice doublings of each partition's two
// growing buffers (slots and values).
func TestMapTaskAllocsIndependentOfEmissions(t *testing.T) {
	vocab := make([]string, 100)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%02d", i)
	}
	const parts = 4
	cfg := Config[string]{ReduceTasks: parts}.withDefaults()
	job := &Job[int, string, int, string]{
		Map: func(r int, emit func(string, int)) error {
			emit(vocab[r%len(vocab)], r)
			return nil
		},
		Reduce: func(string, []int, func(string)) error { return nil },
	}
	allocs := func(n int) float64 {
		split := make([]int, n)
		for i := range split {
			split[i] = i
		}
		return testing.AllocsPerRun(5, func() {
			if _, _, err := job.runMapTask(new(collector[string, int]), nil, 0, 1, split, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	t.Logf("allocations per map task: %.0f at 10k emissions, %.0f at 100k", small, large)
	// Past 256 elements append grows a slice by at least 1.25x, so 10x
	// more elements take at most ceil(log(10)/log(1.25)) = 11 more
	// growths per buffer.
	if bound := float64(parts * 2 * 11); large-small > bound {
		t.Fatalf("map task allocates %.0f times at 10k emissions, %.0f at 100k: more than %.0f extra", small, large, bound)
	}
}

// TestWarmCollectorAllocsOnlyRuns: a collector that has served a task
// serves the next one over the same vocabulary without growing a key
// map or a buffer. Building its runs on fresh arrays is all a task
// allocates, and a task allocates nothing when the previous task's
// runs are handed back, as a fleet worker does.
func TestWarmCollectorAllocsOnlyRuns(t *testing.T) {
	vocab := make([]string, 100)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("word%02d", i)
	}
	cfg := Config[string]{ReduceTasks: 4}.withDefaults()
	split := make([]int, 20_000)
	for i := range split {
		split[i] = i
	}
	for _, combine := range []bool{false, true} {
		job := &Job[int, string, int, string]{
			Map: func(r int, emit func(string, int)) error {
				emit(vocab[r%len(vocab)], r)
				return nil
			},
			Reduce: func(string, []int, func(string)) error { return nil },
		}
		if combine {
			job.Combine = func(_ string, vs []int) ([]int, error) { return append(vs[:0], len(vs)), nil }
		}
		c := new(collector[string, int])
		out, _, err := job.runMapTask(c, nil, 0, 1, split, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		runs := testing.AllocsPerRun(20, func() {
			if _, err := c.runs(job.Combine, nil); err != nil {
				t.Fatal(err)
			}
		})
		fresh := testing.AllocsPerRun(20, func() {
			if _, _, err := job.runMapTask(c, nil, 0, 1, split, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
		kept := testing.AllocsPerRun(5, func() {
			if out, _, err = job.runMapTask(c, out, 0, 1, split, cfg, nil); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("combine=%v: a warm task allocates %.0f times (its runs alone %.0f), %.0f with the runs handed back",
			combine, fresh, runs, kept)
		if fresh > runs || kept > 0 {
			t.Fatalf("combine=%v: a warm task allocates %.0f times, %.0f more than its runs; %.0f with its runs handed back (want 0)",
				combine, fresh, fresh-runs, kept)
		}
	}
}

// floatWire carries float64 keys for the NaN fleet test.
func floatWire() *Wire[int, float64, int, string] {
	return &Wire[int, float64, int, string]{
		AppendIn: AppendInt, ReadIn: ReadInt,
		AppendKey: func(b []byte, k float64) []byte { return AppendInt(b, int(math.Float64bits(k))) },
		ReadKey: func(b []byte) (float64, []byte, error) {
			v, rest, err := ReadInt(b)
			return math.Float64frombits(uint64(v)), rest, err
		},
		AppendVal: AppendInt, ReadVal: ReadInt,
		AppendOut: AppendString, ReadOut: ReadString,
	}
}

// TestNaNKeyRejectedOnEveryMapPath: a NaN key used to hang the merge
// (NaN != NaN, so no cursor ever drained). Every map path must now
// fail fast with ErrNaNKey.
func TestNaNKeyRejectedOnEveryMapPath(t *testing.T) {
	job := func(cfg Config[float64]) *Job[int, float64, int, string] {
		return &Job[int, float64, int, string]{
			Config: cfg,
			Map: func(r int, emit func(float64, int)) error {
				emit(float64(r), r)
				if r%5 == 3 {
					emit(math.NaN(), r)
				}
				return nil
			},
			Reduce: func(k float64, vs []int, emit func(string)) error {
				emit(fmt.Sprint(k, vs))
				return nil
			},
		}
	}
	records := make([]int, 40)
	for i := range records {
		records[i] = i
	}
	cfg := Config[float64]{MapTasks: 4, ReduceTasks: 3}
	paths := map[string]func() error{
		"run": func() error { _, _, err := job(cfg).Run(records); return err },
		"reference": func() error {
			ref := cfg
			ref.ReferenceShuffle = true
			_, _, err := job(ref).Run(records)
			return err
		},
		"speculative": func() error {
			_, _, err := job(cfg).RunSpeculative(records, SpecConfig{SpeculationAfter: time.Millisecond})
			return err
		},
		"worker": func() error {
			// Task 0 over 3 partitions, one record: 3, which emits NaN.
			payload := binary.LittleEndian.AppendUint32(nil, 0)
			payload = binary.LittleEndian.AppendUint32(payload, 3)
			payload = AppendInt(binary.LittleEndian.AppendUint32(payload, 1), 3)
			_, err := job(cfg).taskServer(floatWire()).serve(context.Background(), pnet.Msg{Type: mrMap, Payload: payload})
			return err
		},
		// Workers report the NaN in a failure frame and keep serving;
		// the respawning Spawn would re-run a worker that died on it.
		"fleet": func() error {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			tr, _ := pnet.New("chan")
			fc := &pnet.FleetConfig{
				Transport: tr, Listen: "mr-fleet-nan-workers", Workers: 2,
				Lease: 200 * time.Millisecond, JoinTimeout: 5 * time.Second,
				Backoff: pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
				Spawn: func(rank int, addr string) error {
					go job(cfg).FleetWorker(ctx, pnet.WorkerConfig{Transport: tr, Join: addr, Rank: rank,
						Backoff: pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond}}, floatWire())
					return nil
				},
			}
			_, _, err := job(cfg).RunFleet(ctx, records, fc, floatWire())
			return err
		},
		// With no worker ever joining, the rest of the phase runs on
		// the coordinator's goroutines.
		"fleet-inline": func() error {
			tr, _ := pnet.New("chan")
			fc := &pnet.FleetConfig{
				Transport: tr, Listen: "mr-fleet-nan", Workers: 2,
				Lease: 200 * time.Millisecond, JoinTimeout: 30 * time.Millisecond, MaxRespawns: 1,
				Backoff: pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
				Spawn:   func(rank int, addr string) error { return nil },
			}
			_, _, err := job(cfg).RunFleet(context.Background(), records, fc, floatWire())
			return err
		},
	}
	for name, run := range paths {
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if !errors.Is(err, ErrNaNKey) {
				t.Errorf("%s: err = %v, want ErrNaNKey", name, err)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("%s: still running after 20 s", name)
		}
	}
}
