package mapreduce

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
)

// The out-of-core shuffle must be observationally identical to the
// in-memory sorted-run path: same outputs byte for byte, same stats
// (minus the spill accounting it alone owns), same errors under
// deterministic fault injection — across random jobs, budgets small
// enough that most tasks spill, and merge fan-ins small enough to
// force multi-pass merging.

func TestExternalShuffleOracleRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(4711))
	for trial := 0; trial < 40; trial++ {
		records := rng.Intn(400)
		inputs := make([]int, records)
		for i := range inputs {
			inputs[i] = rng.Intn(1 << 20)
		}
		vocab := 1 + rng.Intn(200)
		hot := 0
		if rng.Intn(2) == 1 {
			hot = 1 + rng.Intn(3)
		}
		combine := rng.Intn(2) == 1
		cfg := Config[string]{
			MapTasks:    rng.Intn(10),
			ReduceTasks: 1 + rng.Intn(8),
			Parallelism: 1 + rng.Intn(4),
		}
		if rng.Intn(2) == 1 {
			cfg.Faults = &fault.Plan{Seed: int64(trial), TaskFail: 0.2}
			cfg.MaxAttempts = 10
		}

		extCfg := cfg
		extCfg.MaxShuffleBytes = 1 + int64(rng.Intn(4096)) // tiny: most tasks spill
		extCfg.MergeFanIn = 2 + rng.Intn(3)                // tiny: multi-pass merges
		desc := fmt.Sprintf("trial %d (records=%d vocab=%d hot=%d combine=%v budget=%d fanIn=%d cfg=%+v)",
			trial, records, vocab, hot, combine, extCfg.MaxShuffleBytes, extCfg.MergeFanIn, cfg)

		memOut, memStats, memErr := oracleJob(vocab, hot, combine, cfg).Run(inputs)
		extJob := oracleJob(vocab, hot, combine, extCfg)
		extJob.External = NewStringIntExternal(t.TempDir(), fmt.Sprintf("oracle%d", trial))
		extOut, extStats, extErr := extJob.Run(inputs)

		if (memErr == nil) != (extErr == nil) {
			t.Fatalf("%s: error mismatch: mem=%v ext=%v", desc, memErr, extErr)
		}
		if memErr != nil {
			continue // both failed identically (deterministic injection)
		}
		if !reflect.DeepEqual(memOut, extOut) {
			for i := range memOut {
				if i >= len(extOut) || memOut[i] != extOut[i] {
					t.Fatalf("%s: outputs diverge at %d:\n mem: %q\n ext: %q", desc, i, memOut[i], extOut[i])
				}
			}
			t.Fatalf("%s: output lengths diverge: mem=%d ext=%d", desc, len(memOut), len(extOut))
		}
		// Multi-pass merging and spill accounting are external-only;
		// every other stat — runs, retries, groups — must agree.
		extStats.MergePasses, extStats.SpilledRuns, extStats.SpilledBytes = memStats.MergePasses, 0, 0
		if memStats != extStats {
			t.Fatalf("%s: stats diverge:\n mem: %+v\n ext: %+v", desc, memStats, extStats)
		}
		if left, _ := filepath.Glob(filepath.Join(extJob.External.Dir, "*.run")); memErr == nil && len(left) > 0 {
			t.Fatalf("%s: scratch files left behind: %v", desc, left)
		}
	}
}

// Adversarial string keys must round-trip the wire codec and the
// external merge exactly like the in-memory prefix machinery.
func TestExternalShuffleAdversarialKeys(t *testing.T) {
	job := func() *Job[int, string, int, string] {
		return &Job[int, string, int, string]{
			Name: "adversarial",
			Map: func(r int, emit func(string, int)) error {
				emit(adversarialKeys[r%len(adversarialKeys)], r)
				emit(adversarialKeys[(r*7)%len(adversarialKeys)], -r)
				return nil
			},
			Reduce: func(key string, values []int, emit func(string)) error {
				emit(fmt.Sprintf("%q=%v", key, values))
				return nil
			},
			Config: Config[string]{MapTasks: 7, ReduceTasks: 3, Parallelism: 2},
		}
	}
	inputs := make([]int, 300)
	for i := range inputs {
		inputs[i] = i
	}
	memOut, _, err := job().Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ext := job()
	ext.Config.MaxShuffleBytes = 1 // everything spills
	ext.Config.MergeFanIn = 2
	ext.External = NewStringIntExternal(t.TempDir(), "adv")
	extOut, stats, err := ext.Run(inputs)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(memOut, extOut) {
		t.Fatalf("outputs diverge:\n mem: %v\n ext: %v", memOut, extOut)
	}
	if stats.SpilledRuns == 0 {
		t.Fatalf("budget of 1 byte spilled nothing: %+v", stats)
	}
}

// wordCountJob is the canonical external-shuffle workload: word count
// over generated text.
func extWordCountJob(cfg Config[string]) *Job[string, string, int, KV[string, int]] {
	return &Job[string, string, int, KV[string, int]]{
		Name: "wordcount-ext",
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(key string, values []int) ([]int, error) {
			sum := 0
			for _, v := range values {
				sum += v
			}
			return []int{sum}, nil
		},
		Reduce: func(key string, values []int, emit func(KV[string, int])) error {
			sum := 0
			for _, v := range values {
				sum += v
			}
			emit(KV[string, int]{key, sum})
			return nil
		},
		Config: cfg,
	}
}

func extCorpus(lines, wordsPerLine, vocab int, seed int64) []string {
	rng := rand.New(rand.NewSource(seed))
	out := make([]string, lines)
	var sb strings.Builder
	for i := range out {
		sb.Reset()
		for w := 0; w < wordsPerLine; w++ {
			if w > 0 {
				sb.WriteByte(' ')
			}
			sb.WriteString("word-")
			sb.WriteString(strconv.Itoa(rng.Intn(vocab)))
		}
		out[i] = sb.String()
	}
	return out
}

// TestExternalShuffleLargerThanBudget runs a word count whose shuffle
// volume is several times the enforced budget and checks the external
// path end to end: resident bytes stayed bounded (spills happened),
// the merge went multi-pass, and the output is byte-identical to the
// unconstrained in-memory run. EXT_SMOKE_LINES scales the corpus up
// for the CI memory-capped smoke job (scripts/external_smoke.sh).
func TestExternalShuffleLargerThanBudget(t *testing.T) {
	lines := 4000
	if s := os.Getenv("EXT_SMOKE_LINES"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("bad EXT_SMOKE_LINES %q: %v", s, err)
		}
		lines = n
	}
	corpus := extCorpus(lines, 16, 5000, 99)

	cfg := Config[string]{MapTasks: 32, ReduceTasks: 4, Parallelism: 2}
	memOut, memStats, err := extWordCountJob(cfg).Run(corpus)
	if err != nil {
		t.Fatal(err)
	}

	// Budget the external run at a quarter of what the in-memory run
	// holds resident, so the shuffle is ≥4× the budget by construction.
	var resident int64
	{
		probe := extWordCountJob(cfg)
		mapOut := make([][]run[string, int], 32)
		splits := splitInputs(corpus, 32)
		for i, split := range splits {
			out, _, err := probe.runMapTask(new(collector[string, int]), nil, i, 1, split, cfg.withDefaults(), nil)
			if err != nil {
				t.Fatal(err)
			}
			resident += runsResidentBytes(out)
			mapOut[i] = out
		}
	}
	budget := resident / 4

	extCfg := cfg
	extCfg.MaxShuffleBytes = budget
	extCfg.MergeFanIn = 4
	job := extWordCountJob(extCfg)
	job.External = NewStringIntExternal(t.TempDir(), "wc")
	extOut, extStats, err := job.Run(corpus)
	if err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(memOut, extOut) {
		t.Fatalf("external output diverges from in-memory (%d vs %d records)", len(extOut), len(memOut))
	}
	if extStats.SpilledRuns == 0 || extStats.SpilledBytes == 0 {
		t.Fatalf("shuffle %dB against budget %dB spilled nothing: %+v", resident, budget, extStats)
	}
	if extStats.MergePasses <= memStats.MergePasses {
		t.Fatalf("expected multi-pass external merges (fan-in 4): ext passes %d, mem passes %d",
			extStats.MergePasses, memStats.MergePasses)
	}
	t.Logf("shuffle resident=%dB budget=%dB spilled=%d runs / %dB, merge passes %d (in-memory %d)",
		resident, budget, extStats.SpilledRuns, extStats.SpilledBytes, extStats.MergePasses, memStats.MergePasses)
}

// A run file damaged on disk — bit rot, truncation, wrong file — must
// surface as a named error from the external merge, never as silently
// wrong output, and a length field that lies must not cost what it
// claims.
func TestExternalRunFileCorruption(t *testing.T) {
	dir := t.TempDir()
	cfg := NewStringIntExternal(dir, "corrupt")
	writeRun := func(t *testing.T, name string, pairs []KV[string, int]) string {
		t.Helper()
		r := makeRun(pairs)
		path := filepath.Join(dir, name)
		if _, err := writeRunFile(&cfg.Codec, path, &r); err != nil {
			t.Fatal(err)
		}
		return path
	}
	drain := func(path string) error {
		r, err := cfg.openRun(path)
		if err != nil {
			return err
		}
		defer r.src.remove()
		_, _, err = mergeRuns([]*run[string, int]{r}, func(string, []int, int) error { return nil })
		return err
	}
	pairs := []KV[string, int]{{"alpha", 1}, {"beta", 2}, {"beta", 3}, {"gamma", 4}}
	rewrite := func(t *testing.T, name string, edit func([]byte) []byte) string {
		t.Helper()
		path := writeRun(t, name, pairs)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, edit(raw), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	// tail is what follows the last chunk's payload: its CRC and the
	// 17-byte end marker.
	const tail = 4 + 17

	t.Run("clean", func(t *testing.T) {
		if err := drain(writeRun(t, "clean.run", pairs)); err != nil {
			t.Fatalf("clean run failed to read: %v", err)
		}
	})
	t.Run("crc-mismatch", func(t *testing.T) {
		path := rewrite(t, "crc.run", func(raw []byte) []byte {
			raw[len(raw)-tail-1] ^= 0x40 // inside the last chunk's payload
			return raw
		})
		if err := drain(path); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("corrupted payload: err = %v, want ckpt.ErrCorrupt", err)
		}
	})
	t.Run("truncated", func(t *testing.T) {
		// Cut the end marker and part of the final chunk: the shape a
		// crashed writer leaves behind.
		path := rewrite(t, "short.run", func(raw []byte) []byte { return raw[:len(raw)-tail-3] })
		if err := drain(path); !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("truncated file: err = %v, want ckpt.ErrTruncated", err)
		}
	})
	t.Run("bad-magic", func(t *testing.T) {
		path := filepath.Join(dir, "magic.run")
		if err := os.WriteFile(path, []byte("NOPE\x01\x00\x00\x00"), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := drain(path); !errors.Is(err, ckpt.ErrCorrupt) {
			t.Fatalf("bad magic: err = %v, want ckpt.ErrCorrupt", err)
		}
	})
	t.Run("empty-file", func(t *testing.T) {
		path := filepath.Join(dir, "empty.run")
		if err := os.WriteFile(path, nil, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := drain(path); !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("empty file: err = %v, want ckpt.ErrTruncated", err)
		}
	})
	t.Run("length-claim", func(t *testing.T) {
		// A chunk header claiming 256 MiB, with 3 bytes behind it.
		head, err := runFormat.Append(nil, runSpans, nil)
		if err != nil {
			t.Fatal(err)
		}
		head = head[:13]
		binary.LittleEndian.PutUint32(head[9:], 256<<20)
		path := filepath.Join(dir, "claim.run")
		if err := os.WriteFile(path, append(head, 1, 2, 3), 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = drain(path)
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ckpt.ErrTruncated) {
			t.Fatalf("lying length: err = %v, want ckpt.ErrTruncated", err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
			t.Fatalf("a 256 MiB length claim allocated %d bytes", got)
		}
	})
}

// span is one key's values as a merge delivers them.
type span struct {
	key  string
	vals []int
}

// readRunFile drains the run file at path through the merge, one group
// per span.
func readRunFile(path string) ([]span, error) {
	r, err := stringIntCodec.openRun(path)
	if err != nil {
		return nil, err
	}
	defer r.src.f.Close()
	var spans []span
	_, _, err = mergeRuns([]*run[string, int]{r}, func(k string, vs []int, _ int) error {
		spans = append(spans, span{k, slices.Clone(vs)})
		return nil
	})
	return spans, err
}

// writeSpans writes spans as a run file at path.
func writeSpans(t *testing.T, path string, spans []span) []byte {
	t.Helper()
	c := stringIntCodec
	w, err := createRun(&c, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(spans) && err == nil; i++ {
		err = w.add(spans[i].key, spans[i].vals)
	}
	if err := w.close(err); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestRunFileChunksMergeLikeMemory: a run too big for one chunk is
// refilled chunk by chunk, and merges — on the head-scanning and the
// heap path — exactly as it does from memory.
func TestRunFileChunksMergeLikeMemory(t *testing.T) {
	defer func(old int) { scanMaxRuns = old }(scanMaxRuns)
	// About 59 resident bytes per key (three values each): n items
	// fill three chunks and part of a fourth.
	const n = 3 * runChunk / 16
	var big, small []KV[string, int]
	for i := 0; i < n; i++ {
		big = append(big, KV[string, int]{fmt.Sprintf("k%06d", i%(n/3+7)), i})
		if i%5 == 0 {
			small = append(small, KV[string, int]{fmt.Sprintf("k%06d", i/3), -i})
		}
	}
	bigRun, smallRun := makeRun(big), makeRun(small)
	path := filepath.Join(t.TempDir(), "big.run")
	if _, err := writeRunFile(&stringIntCodec, path, &bigRun); err != nil {
		t.Fatal(err)
	}
	if chunks := countChunks(t, path); chunks < 4 {
		t.Fatalf("the run file holds %d chunks, want at least 4", chunks)
	}
	collect := func(runs []*run[string, int]) []span {
		var out []span
		if _, _, err := mergeRuns(runs, func(k string, vs []int, _ int) error {
			out = append(out, span{k, slices.Clone(vs)})
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		return out
	}
	for _, scanMaxRuns = range []int{64, 1} {
		want := collect([]*run[string, int]{&bigRun, &smallRun})
		fromDisk, err := stringIntCodec.openRun(path)
		if err != nil {
			t.Fatal(err)
		}
		got := collect([]*run[string, int]{fromDisk, &smallRun})
		fromDisk.src.f.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("scanMaxRuns %d: merge over the run file differs from memory", scanMaxRuns)
		}
	}
}

// countChunks counts the chunk frames of the run file at path.
func countChunks(t *testing.T, path string) int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for n := 0; ; n++ {
		tag, _, err := runFormat.Read(f, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tag == runEnd {
			return n
		}
	}
}

// FuzzReadRunFile opens arbitrary bytes as a PRN1 run file and drains
// it through the merge. No input may panic or allocate much more than
// its own size — a frame header's length claim costs at most
// ckpt.FirstChunk. A rejected file fails with exactly one of
// ckpt.ErrTruncated and ckpt.ErrCorrupt. An accepted file's spans,
// written out and read back, are the same spans, and writing those
// again gives the same bytes. testdata/fuzz/FuzzReadRunFile holds the
// crafted inputs.
func FuzzReadRunFile(f *testing.F) {
	dir := f.TempDir()
	r := makeRun([]KV[string, int]{{"alpha", 1}, {"beta", 2}, {"beta", 3}, {"gamma", 4}})
	seed := filepath.Join(dir, "seed.run")
	if _, err := writeRunFile(&stringIntCodec, seed, &r); err != nil {
		f.Fatal(err)
	}
	b, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(b)
	f.Fuzz(func(t *testing.T, b []byte) {
		in := filepath.Join(dir, "in.run")
		if err := os.WriteFile(in, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		spans, err := readRunFile(in)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+64*uint64(len(b)) {
			t.Fatalf("a %d-byte file allocated %d bytes", len(b), grew)
		}
		if err != nil {
			if errors.Is(err, ckpt.ErrTruncated) == errors.Is(err, ckpt.ErrCorrupt) {
				t.Fatalf("error %q does not carry exactly one named error", err)
			}
			return
		}
		out := writeSpans(t, filepath.Join(dir, "out.run"), spans)
		again, err := readRunFile(filepath.Join(dir, "out.run"))
		if err != nil || len(again) != len(spans) {
			t.Fatalf("re-encoded spans read back as %d spans, err %v; want %d", len(again), err, len(spans))
		}
		for i := range spans {
			if again[i].key != spans[i].key || !slices.Equal(again[i].vals, spans[i].vals) {
				t.Fatalf("span %d re-encodes to %+v, read %+v", i, again[i], spans[i])
			}
		}
		if !bytes.Equal(writeSpans(t, filepath.Join(dir, "again.run"), again), out) {
			t.Fatalf("encoding the decoded spans again changed the bytes")
		}
	})
}

// The corruption error must also propagate out of a full job run, not
// just the reader in isolation.
func TestExternalMergeSurfacesCorruptRun(t *testing.T) {
	dir := t.TempDir()
	cfg := Config[string]{MapTasks: 8, ReduceTasks: 1, Parallelism: 1,
		MaxShuffleBytes: 1, MergeFanIn: 2}
	ext := NewStringIntExternal(dir, "job")
	x, err := newExtShuffle(ext, cfg.MaxShuffleBytes, cfg.MergeFanIn, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	mapOut := make([][]run[string, int], 2)
	for tsk := 0; tsk < 2; tsk++ {
		mapOut[tsk] = []run[string, int]{makeRun([]KV[string, int]{{"k", tsk}})}
		if err := x.admit(tsk, mapOut[tsk]); err != nil {
			t.Fatal(err)
		}
	}
	// Damage task 1's spilled run, then merge the partition.
	raw, err := os.ReadFile(x.files[1][0])
	if err != nil {
		t.Fatal(err)
	}
	// The last byte of its one chunk's payload, ahead of the chunk's
	// CRC and the 17-byte end frame.
	raw[len(raw)-4-17-1] ^= 0x01
	if err := os.WriteFile(x.files[1][0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, _, _, err = x.mergePartition(0, mapOut, func(string, []int, int) error { return nil })
	if !errors.Is(err, ckpt.ErrCorrupt) || !strings.Contains(err.Error(), "CRC mismatch") {
		t.Fatalf("merge over corrupt run: err = %v, want a ckpt.ErrCorrupt CRC mismatch", err)
	}
}

func TestExternalConfigValidation(t *testing.T) {
	inputs := []int{1, 2, 3}
	t.Run("budget-without-external", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20})
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "Job.External") {
			t.Fatalf("err = %v, want Job.External requirement", err)
		}
	})
	t.Run("reference-shuffle-conflict", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20, ReferenceShuffle: true})
		j.External = NewStringIntExternal(t.TempDir(), "x")
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "ReferenceShuffle") {
			t.Fatalf("err = %v, want ReferenceShuffle conflict", err)
		}
	})
	t.Run("missing-codec", func(t *testing.T) {
		j := oracleJob(10, 0, false, Config[string]{MaxShuffleBytes: 1 << 20})
		j.External = &External[string, int]{Dir: t.TempDir(), Codec: Codec[string, int]{AppendKey: AppendString}}
		if _, _, err := j.Run(inputs); err == nil || !strings.Contains(err.Error(), "codec") {
			t.Fatalf("err = %v, want codec requirement", err)
		}
	})
}
