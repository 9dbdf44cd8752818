package main

// compare.go judges a change against its parent from two files of run
// records, one per side, made with the same benchmark code and
// settings. The i-th runs of a workload on the two sides form a pair,
// so alternate the sides when making them. Per (metric, workload):
//
//   - improved: the change wins at least 9 of every 10 pairs and its
//     median beats the parent's by more than the parent's quartile
//     spread;
//   - regressed: the change's median is worse than the parent's by
//     more than the metric's bound in BENCHMARK.json;
//   - unresolved: otherwise, when the parent's own spread is wider than
//     the bound, unless every change run beats every parent run;
//   - within bound: otherwise.
//
// Any rise in the share of failed operations is a regression.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json compare needs.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		metricDef
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(path string) (benchmarkFile, error) {
	var b benchmarkFile
	raw, err := os.ReadFile(path)
	if err != nil {
		return b, err
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		return b, fmt.Errorf("%s: %w", path, err)
	}
	return b, nil
}

type verdict string

const (
	improved    verdict = "improved"
	withinBound verdict = "within bound"
	unresolved  verdict = "unresolved"
	regressed   verdict = "regressed"
)

// judge applies the rule above to one metric's runs. better is
// "lower" or "higher"; bound is a share of the parent's median.
func judge(parent, change []float64, better string, bound float64) (v verdict, wins, pairs int) {
	// gain is how much a beats b in the metric's direction.
	gain := func(a, b float64) float64 {
		if better == "higher" {
			return a - b
		}
		return b - a
	}
	pairs = min(len(parent), len(change))
	for i := range pairs {
		if gain(change[i], parent[i]) > 0 {
			wins++
		}
	}
	q1, medP, q3 := quartiles(parent)
	_, medC, _ := quartiles(change)
	spread := q3 - q1
	switch {
	case pairs > 0 && wins*10 >= pairs*9 && gain(medC, medP) > spread:
		return improved, wins, pairs
	case -gain(medC, medP) > bound*medP:
		return regressed, wins, pairs
	case spread > bound*medP && !allBeat(change, parent, gain):
		return unresolved, wins, pairs
	}
	return withinBound, wins, pairs
}

// allBeat reports whether every change run beats every parent run.
func allBeat(change, parent []float64, gain func(a, b float64) float64) bool {
	for _, c := range change {
		for _, p := range parent {
			if gain(c, p) <= 0 {
				return false
			}
		}
	}
	return true
}

// runCompare prints the verdict table and returns 1 if anything
// regressed.
func runCompare(parentPath, changePath, benchPath string, w io.Writer) int {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	parent, err := readRecords(parentPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	change, err := readRecords(changePath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 2
	}
	code := 0
	fmt.Fprintf(w, "%-16s %-14s %-26s %-26s %-7s %s\n", "workload", "metric", "parent median [q1 q3]", "change median [q1 q3]", "wins", "verdict")
	for _, wl := range bf.Workloads {
		p, c := byWorkload(parent, wl.Name), byWorkload(change, wl.Name)
		if len(p) == 0 || len(c) == 0 {
			continue
		}
		for _, e := range bf.EndToEnd {
			pv, cv := values(p, e.Name), values(c, e.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			v, wins, pairs := judge(pv, cv, e.Better, e.Bound)
			if v == regressed {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-14s %-26s %-26s %3d/%-3d %s\n", wl.Name, e.Name,
				summary(pv), summary(cv), wins, pairs, v)
		}
		pf, cf := failRatio(p), failRatio(c)
		v := withinBound
		if cf > pf {
			v, code = regressed, 1
		}
		fmt.Fprintf(w, "%-16s %-14s %-26.4g %-26.4g %-7s %s\n", wl.Name, "fail_ratio", pf, cf, "", v)
	}
	return code
}

func byWorkload(recs []record, name string) []record {
	var out []record
	for _, r := range recs {
		if r.Descriptor.Workload == name && !r.Descriptor.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(recs []record, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if v, ok := r.Result.Metrics[metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

func summary(xs []float64) string {
	q1, med, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g %.4g]", med, q1, q3)
}

// failRatio is the share of operations that failed; a wrong output
// counts as a failed operation.
func failRatio(recs []record) float64 {
	failed, attempted := 0, 0
	for _, r := range recs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
	}
	return ratio(float64(failed), float64(attempted))
}
