package mapreduce

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	pnet "repro/internal/net"
)

// Engine throughput benchmarks, including the combiner's effect on
// shuffle volume.

func benchCorpus(lines int) []string {
	words := []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}
	out := make([]string, lines)
	for i := range out {
		var sb strings.Builder
		for j := 0; j < 8; j++ {
			if j > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString(words[(i+j)%len(words)])
		}
		out[i] = sb.String()
	}
	return out
}

func benchWordCount(b *testing.B, cfg Config[string], combine bool) {
	b.Helper()
	lines := benchCorpus(2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := wordCountJobForBench(cfg)
		if combine {
			job.Combine = func(key string, values []int) ([]int, error) {
				sum := 0
				for _, v := range values {
					sum += v
				}
				return []int{sum}, nil
			}
		}
		if _, _, err := job.Run(lines); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(lines[0]) * len(lines)))
}

func wordCountJobForBench(cfg Config[string]) *Job[string, string, int, KV[string, int]] {
	return &Job[string, string, int, KV[string, int]]{
		Name:   "bench-wordcount",
		Config: cfg,
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Reduce: func(key string, values []int, emit func(KV[string, int])) error {
			sum := 0
			for _, v := range values {
				sum += v
			}
			emit(KV[string, int]{key, sum})
			return nil
		},
	}
}

func BenchmarkWordCountSerial(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 1, ReduceTasks: 1, Parallelism: 1}, false)
}

func BenchmarkWordCountParallel(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4}, false)
}

func BenchmarkWordCountWithCombiner(b *testing.B) {
	benchWordCount(b, Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4}, true)
}

// --- million-record suite ------------------------------------------
// The headline numbers for the sorted-run shuffle: 1M input lines
// (3M intermediate pairs), uniform (~50k distinct keys, shuffle-bound)
// and high-skew (Zipf, a few hot keys with huge value groups). Each
// benchmark has a *Naive twin running the retained hash-group shuffle
// (Config.ReferenceShuffle), so the speedup and allocs/op cut are
// recorded side by side in the BENCH_pr4.json snapshot.

var corpus1M struct {
	uniformOnce, skewOnce sync.Once
	uniform, skewed       []string
}

func uniformCorpus1M() []string {
	corpus1M.uniformOnce.Do(func() {
		rng := rand.New(rand.NewSource(42))
		lines := make([]string, 1_000_000)
		for i := range lines {
			lines[i] = fmt.Sprintf("w%d w%d w%d", rng.Intn(50000), rng.Intn(50000), rng.Intn(50000))
		}
		corpus1M.uniform = lines
	})
	return corpus1M.uniform
}

func skewedCorpus1M() []string {
	corpus1M.skewOnce.Do(func() {
		rng := rand.New(rand.NewSource(43))
		zipf := rand.NewZipf(rng, 1.3, 1, 50000)
		lines := make([]string, 1_000_000)
		for i := range lines {
			lines[i] = fmt.Sprintf("z%d z%d z%d", zipf.Uint64(), zipf.Uint64(), zipf.Uint64())
		}
		corpus1M.skewed = lines
	})
	return corpus1M.skewed
}

func config1M(naive bool) Config[string] {
	return Config[string]{MapTasks: 32, ReduceTasks: 8, ReferenceShuffle: naive}
}

func benchWordCount1M(b *testing.B, lines []string, naive bool) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := wordCountJobForBench(config1M(naive)).Run(lines); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWordCount1M(b *testing.B)      { benchWordCount1M(b, uniformCorpus1M(), false) }
func BenchmarkWordCount1MNaive(b *testing.B) { benchWordCount1M(b, uniformCorpus1M(), true) }

func BenchmarkWordCount1MHighSkew(b *testing.B)      { benchWordCount1M(b, skewedCorpus1M(), false) }
func BenchmarkWordCount1MHighSkewNaive(b *testing.B) { benchWordCount1M(b, skewedCorpus1M(), true) }

// benchShuffle1M isolates the shuffle+reduce phase: the map output is
// materialized once outside the timer, and each iteration pays only
// reducePhase — the measurement behind the "shuffle phase >=3x"
// acceptance gate.
func benchShuffle1M(b *testing.B, naive bool) {
	b.Helper()
	cfg := config1M(naive).withDefaults()
	job := wordCountJobForBench(cfg)
	splits := splitInputs(uniformCorpus1M(), cfg.MapTasks)
	mapOut := make([][]run[string, int], len(splits))
	for t, split := range splits {
		out, _, err := job.runMapTask(new(collector[string, int]), nil, t, 1, split, cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		mapOut[t] = out
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := job.reducePhase(context.Background(), mapOut, cfg, nil, nil, nil, &Stats{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkShuffle1M(b *testing.B)      { benchShuffle1M(b, false) }
func BenchmarkShuffle1MNaive(b *testing.B) { benchShuffle1M(b, true) }

// The out-of-core twins: the same 1M word count with the shuffle
// budgeted to a fraction of its resident footprint, so every iteration
// spills and multi-pass-merges through disk. The delta against
// BenchmarkWordCount1M is the measured price of running beyond RAM.
func benchWordCount1MExternal(b *testing.B, budget int64, fanIn int) {
	b.Helper()
	lines := uniformCorpus1M()
	dir := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := config1M(false)
		cfg.MaxShuffleBytes = budget
		cfg.MergeFanIn = fanIn
		job := wordCountJobForBench(cfg)
		job.External = NewStringIntExternal(dir, "bench")
		_, stats, err := job.Run(lines)
		if err != nil {
			b.Fatal(err)
		}
		if stats.SpilledRuns == 0 {
			b.Fatalf("budget %d spilled nothing", budget)
		}
	}
}

func BenchmarkWordCount1MExternal(b *testing.B) {
	benchWordCount1MExternal(b, 8<<20, 16)
}

func BenchmarkWordCount1MExternalTightBudget(b *testing.B) {
	benchWordCount1MExternal(b, 1<<20, 4)
}

func BenchmarkShuffleManyKeys(b *testing.B) {
	inputs := make([]int, 5000)
	for i := range inputs {
		inputs[i] = i
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		job := &Job[int, string, int, int]{
			Map: func(v int, emit func(string, int)) error {
				emit(fmt.Sprintf("key-%d", v%1000), v)
				return nil
			},
			Reduce: func(key string, values []int, emit func(int)) error {
				emit(len(values))
				return nil
			},
			Config: Config[string]{MapTasks: 8, ReduceTasks: 4, Parallelism: 4},
		}
		if _, _, err := job.Run(inputs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetWorkerTasks is one fleet word-count worker's life in
// the end-to-end benchmark's shape: 10k lines of a Zipf-skewed
// 5000-word vocabulary split into 32 map tasks over 8 partitions with
// a combiner, of which the worker serves 16 map frames and then 4
// reduce frames. The frames are built outside the timer; read B/op
// and cpu-ms/op (process CPU per worker life, GC included).
func BenchmarkFleetWorkerTasks(b *testing.B) {
	const nMap, nReduce = 32, 8
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	lines := make([]string, 10_000)
	for i := range lines {
		var sb strings.Builder
		for w := range 6 + rng.Intn(10) {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString("w")
			sb.WriteString(strconv.FormatUint(zipf.Uint64(), 36))
		}
		lines[i] = sb.String()
	}
	sum := func(vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	}
	job := &Job[string, string, int, string]{
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(k string, vs []int) ([]int, error) { return []int{sum(vs)}, nil },
		Reduce: func(k string, vs []int, emit func(string)) error {
			emit(k + " " + strconv.Itoa(sum(vs)))
			return nil
		},
		Config: Config[string]{MapTasks: nMap, ReduceTasks: nReduce},
	}
	w := &Wire[string, string, int, string]{
		AppendIn: AppendString, ReadIn: ReadString,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
		AppendOut: AppendString, ReadOut: ReadString,
	}

	// Every map task's reply, for the reduce frames, from the
	// coordinator's own frame builders. They build each frame in the
	// last one's array, so the frames kept are clones.
	splits := splitInputs(lines, nMap)
	f := &fleetRun[string, string, int, string]{fleetExec: &fleetExec{}, w: w}
	md := &dispatcher[mapResult[string, int]]{}
	f.maps(md, splits, nReduce)
	var frames []pnet.Msg
	mapOut := make([][]run[string, int], nMap)
	for t := range splits {
		m := f.msg(t)
		if t < nMap/2 {
			frames = append(frames, pnet.Msg{Type: m.Type, Payload: slices.Clone(m.Payload)})
		}
		reply, err := job.taskServer(w).serve(context.Background(), m)
		if err != nil {
			b.Fatal(err)
		}
		r, err := md.decode(t, reply.Payload[4:])
		if err != nil {
			b.Fatal(err)
		}
		mapOut[t] = r.runs
	}
	rd := &dispatcher[partResult[string]]{}
	f.reduces(rd, mapOut, nReduce)
	for p := range nReduce / 2 {
		m := f.msg(p)
		frames = append(frames, pnet.Msg{Type: m.Type, Payload: slices.Clone(m.Payload)})
	}

	b.ReportAllocs()
	b.ResetTimer()
	start := cpuTime()
	for range b.N {
		s := job.taskServer(w)
		for _, m := range frames {
			if _, err := s.serve(context.Background(), m); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(cpuTime()-start)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
}

// cpuTime is this process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
