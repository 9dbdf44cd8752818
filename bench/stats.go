package main

// stats.go holds the order statistics every workload reports with and
// the process readings (CPU, GC, allocation, peak RSS) the per-layer
// tables are priced in.

import (
	"math"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 <= p <= 100) of xs,
// interpolating linearly between the two closest ranks. NaN for an
// empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first quartile, the median and the third
// quartile of xs exactly as Python's statistics.quantiles(xs, n=4)
// computes them (its default "exclusive" method), so a spread printed
// here matches one derived from the same values by an external
// checker. A single value is returned three times.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when b is 0: a layer a workload never enters
// reports a zero share rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is one reading of a process's own counters; the
// difference of two readings prices the work done between them.
type procSample struct {
	CPU      time.Duration `json:"cpu_ns"` // user + system, from getrusage
	GCCPU    float64       `json:"gc_cpu_s"`
	TotalCPU float64       `json:"total_cpu_s"` // runtime/metrics' own CPU estimate, the GC share's base
	Alloc    uint64        `json:"alloc_bytes"` // cumulative heap allocation
	MaxRSSMB float64       `json:"max_rss_mb"`
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
	}
	metrics.Read(s)
	return procSample{
		CPU:      rusageCPU(&ru),
		GCCPU:    s[0].Value.Float64(),
		TotalCPU: s[1].Value.Float64(),
		Alloc:    s[2].Value.Uint64(),
		MaxRSSMB: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// sub returns the counters accumulated since base; MaxRSSMB stays the
// later reading's peak.
func (p procSample) sub(base procSample) procSample {
	return procSample{
		CPU:      p.CPU - base.CPU,
		GCCPU:    p.GCCPU - base.GCCPU,
		TotalCPU: p.TotalCPU - base.TotalCPU,
		Alloc:    p.Alloc - base.Alloc,
		MaxRSSMB: p.MaxRSSMB,
	}
}

// selfCPU is this process's CPU time so far. With steal-time accounting
// a guest kernel leaves out the time its host ran someone else, so the
// reading prices the process's own work even on a shared host.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return rusageCPU(&ru)
}

func rusageCPU(ru *syscall.Rusage) time.Duration {
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
