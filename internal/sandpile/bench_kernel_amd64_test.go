package sandpile

import (
	"testing"

	"repro/internal/grid"
)

// Forced-variant benchmarks: the same row and region sweeps pinned to
// each dispatch level, so the AVX2-over-SSE2 multiple is a recorded
// number in the benchmark snapshots rather than a claim. The unforced
// BenchmarkSyncRow/BenchmarkSyncRegion* measure whatever dispatch
// picked (KernelName()).

func benchSyncRowKernel(b *testing.B, level int) {
	b.Helper()
	if level == kernelAVX2 && !hasAVX2 {
		b.Skip("AVX2 unavailable on this machine")
	}
	restore := forceKernel(level)
	defer restore()
	cur := benchGrid(1024)
	next := grid.New(1024, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyncRow(cur, next, i%1024, 0, 1024)
	}
	b.SetBytes(1024 * 4)
}

func BenchmarkSyncRowScalar(b *testing.B) { benchSyncRowKernel(b, kernelScalar) }
func BenchmarkSyncRowSSE2(b *testing.B)   { benchSyncRowKernel(b, kernelSSE2) }
func BenchmarkSyncRowAVX2(b *testing.B)   { benchSyncRowKernel(b, kernelAVX2) }

func benchSyncRegionKernel(b *testing.B, level int) {
	b.Helper()
	if level == kernelAVX2 && !hasAVX2 {
		b.Skip("AVX2 unavailable on this machine")
	}
	restore := forceKernel(level)
	defer restore()
	cur := benchGrid(512)
	next := grid.New(512, 512)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SyncRegionInner(cur, next, 1, 511, 1, 511)
	}
	b.SetBytes(510 * 510 * 4)
}

func BenchmarkSyncRegionInnerScalar(b *testing.B) { benchSyncRegionKernel(b, kernelScalar) }
func BenchmarkSyncRegionInnerSSE2(b *testing.B)   { benchSyncRegionKernel(b, kernelSSE2) }
func BenchmarkSyncRegionInnerAVX2(b *testing.B)   { benchSyncRegionKernel(b, kernelAVX2) }
