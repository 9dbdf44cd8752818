package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestMain lets the test binary take the server and worker roles, so
// the smoke test below self-execs the fleet workers and the job server
// exactly as the benchmark binary does.
func TestMain(m *testing.M) {
	if role := os.Getenv(roleEnv); role != "" {
		if err := runRole(role); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", role, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{[]float64{7}, 50, 7},
		{[]float64{7}, 99, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{1, 2, 3, 4}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 90, 4.6},
		{[]float64{10, 0, 20, 30, 40, 50, 60, 70, 80, 90, 100}, 97, 97},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of an empty sample is not NaN")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs,
// n=4), the spread an external checker computes from the same runs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{4}, [3]float64{4, 4, 4}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{10.5, 3.25, 7, 7, 1, 9.75, 2.5, 8, 6.125, 4}, [3]float64{3.0625, 6.5625, 8.4375}},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, med, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	ten := func(base, step float64) []float64 {
		var xs []float64
		for i := range 10 {
			xs = append(xs, base+step*float64(i%5))
		}
		return xs
	}
	parent := ten(100, 1) // 100..104, quartile spread 3
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		bound  float64
		want   verdict
	}{
		{"faster in every pair", ten(90, 1), "lower", 0.1, improved},
		{"faster by less than the parent's spread", ten(98, 1), "lower", 0.1, withinBound},
		{"same", ten(100, 1), "lower", 0.1, withinBound},
		{"slower within the bound", ten(105, 1), "lower", 0.1, withinBound},
		{"slower past the bound", ten(120, 1), "lower", 0.1, regressed},
		{"higher is better: more", ten(110, 1), "higher", 0.1, improved},
		{"higher is better: fewer", ten(80, 1), "higher", 0.1, regressed},
		{"spread wider than the bound", ten(101, 1), "lower", 0.01, unresolved},
		{"spread wide but every run slightly better", ten(99.9, 0), "lower", 0.01, withinBound},
	} {
		if got, _, _ := judge(parent, tc.change, tc.better, tc.bound); got != tc.want {
			t.Errorf("%s: judge = %s, want %s", tc.name, got, tc.want)
		}
	}
	// Eight wins in ten pairs is not a gain, however large.
	change := ten(50, 1)
	change[0], change[1] = 200, 200
	if got, wins, pairs := judge(parent, change, "lower", 0.5); got == improved {
		t.Errorf("%d/%d wins judged %s", wins, pairs, got)
	}
}

func TestFailRatioRegresses(t *testing.T) {
	rec := func(attempted, failed int) record {
		return record{Descriptor: descriptor{Workload: "planet-seq"},
			Result: result{Correct: failed == 0, Attempted: attempted, Failed: failed,
				Metrics: map[string]metricValue{"cpu_ms_per_op": {Value: 20, Unit: "ms"}}}}
	}
	dir := t.TempDir()
	write := func(name string, recs ...record) string {
		path := filepath.Join(dir, name)
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		for _, r := range recs {
			if err := enc.Encode(r); err != nil {
				t.Fatal(err)
			}
		}
		return path
	}
	parent := write("parent.jsonl", rec(100, 0), rec(100, 0))
	change := write("change.jsonl", rec(100, 0), rec(100, 1))
	if code := runCompare(parent, change, filepath.Join("..", "BENCHMARK.json"), new(nopWriter)); code != 1 {
		t.Errorf("one more failed operation: compare exit %d, want 1", code)
	}
	if code := runCompare(parent, parent, filepath.Join("..", "BENCHMARK.json"), new(nopWriter)); code != 0 {
		t.Errorf("identical runs: compare exit %d, want 0", code)
	}
}

type nopWriter struct{}

func (*nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json, which tools that
// run the benchmark read, in step with the metrics and workloads this
// program emits.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	bf, err := readBenchmarkFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var names, whys []string
	for _, w := range bf.Workloads {
		names, whys = append(names, w.Name), append(whys, w.Why)
	}
	var gatedNames, gatedWhys []string
	for _, w := range workloads {
		if w.gated {
			gatedNames, gatedWhys = append(gatedNames, w.name), append(gatedWhys, w.why)
		}
	}
	if !slices.Equal(names, gatedNames) || !slices.Equal(whys, gatedWhys) {
		t.Errorf("workloads:\n file %q\n code %q", names, gatedNames)
	}
	var e2e []metricDef
	largest := 0.0
	for _, e := range bf.EndToEnd {
		e2e = append(e2e, e.metricDef)
		if e.Bound <= 0 || e.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", e.Name, e.Bound)
		}
		largest = max(largest, e.Bound)
	}
	for _, e := range bf.EndToEnd {
		if e.Name == "setup_s" && e.Bound != largest {
			t.Errorf("setup_s bound %v is not the largest (%v)", e.Bound, largest)
		}
	}
	if !slices.Equal(e2e, endToEnd) {
		t.Errorf("end_to_end:\n file %v\n code %v", e2e, endToEnd)
	}
	if !slices.Equal(bf.PerLayer, perLayer) {
		t.Errorf("per_layer:\n file %v\n code %v", bf.PerLayer, perLayer)
	}
}

// TestQuickAllWorkloads is the smoke test: every workload, untraced and
// traced, for a fraction of a second each, with real server and worker
// processes. Every oracle must pass, no operation may fail, each run
// must print exactly the metric names BENCHMARK.json lists, and the
// traced runs must write a loadable Perfetto trace.
func TestQuickAllWorkloads(t *testing.T) {
	base := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			rec, err := runOne(w, 1, 0.3, traced, base)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			r := rec.Result
			if !r.Correct || r.Failed != 0 || r.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, r.Correct, r.Attempted, r.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			var want, got []string
			for _, d := range defs {
				want = append(want, d.Name)
				if v := r.Metrics[d.Name]; v.Unit != d.Unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, d.Name, v.Unit, d.Unit)
				}
			}
			for name := range r.Metrics {
				got = append(got, name)
			}
			slices.Sort(want)
			slices.Sort(got)
			if !slices.Equal(got, want) {
				t.Errorf("%s traced=%v: metrics %v, want %v", w.name, traced, got, want)
			}
			if traced {
				checkChromeTrace(t, filepath.Join(base, "trace", w.name+".trace.json"))
			}
		}
	}
}

func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	spans := 0
	for _, e := range events {
		if e["ph"] != "X" {
			continue
		}
		spans++
		for _, k := range []string{"pid", "tid", "ts", "dur"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("%s: X event without %s: %v", path, k, e)
			}
		}
	}
	if spans == 0 {
		t.Errorf("%s: no X events", path)
	}
}
