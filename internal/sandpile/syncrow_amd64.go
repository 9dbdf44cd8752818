//go:build amd64

package sandpile

import (
	"os"
	"unsafe"
)

// Vectorized synchronous kernels: the five-point BTW stencil is
// embarrassingly lane-parallel — each output cell is
//
//	center%4 + left/4 + right/4 + up/4 + down/4
//
// with %4 = AND 3 and /4 = logical shift, both of which SIMD applies
// per 32-bit lane with no cross-lane interaction. Two assembly region
// kernels implement it: the SSE2 baseline (syncrow_amd64.s, four
// cells per iteration — SSE2 is part of the amd64 baseline, always
// safe) and an AVX2 widening (syncrow_avx2_amd64.s, eight cells per
// iteration) selected at startup when CPUID/XGETBV prove the CPU and
// OS both support YMM state (cpu_amd64.go). Each call sweeps a whole
// rectangle: the rows loop inside the assembly, the per-lane
// unchanged counters carry across rows, and the horizontal sum (and
// AVX2's VZEROUPPER) runs once at the end, so a 32×32 tile costs one
// Go→assembly call per kernel rather than one per row. Both use
// unaligned loads for the left/right taps (the center load shifted
// one cell, always inside the halo'd backing array) and count changed
// cells branch-free by accumulating compare masks. Other
// architectures use the scalar row kernel.

const hasPackedKernels = true

// Kernel dispatch levels, ascending capability. Startup picks the
// best the machine supports; SANDPILE_KERNEL=scalar|sse2|avx2
// force-selects one for tests and benchmarking (requesting avx2 on a
// machine without it falls back to sse2, never crashes).
const (
	kernelScalar = iota
	kernelSSE2
	kernelAVX2
)

var (
	hasAVX2     = detectAVX2()
	kernelLevel = selectKernel(hasAVX2, os.Getenv("SANDPILE_KERNEL"))
	usePacked   = kernelLevel > kernelScalar
)

// selectKernel resolves the dispatch level from the detected features
// and the SANDPILE_KERNEL override. Pure function; tested directly.
func selectKernel(avx2 bool, force string) int {
	switch force {
	case "scalar":
		return kernelScalar
	case "sse2":
		return kernelSSE2
	case "avx2":
		if avx2 {
			return kernelAVX2
		}
		return kernelSSE2 // graceful fallback, not a crash
	}
	// Empty or unrecognized override: best available.
	if avx2 {
		return kernelAVX2
	}
	return kernelSSE2
}

// forceKernel pins the dispatch to level and returns a restore func;
// tests use it to drive every variant on one machine. Not safe under
// concurrent Sync calls.
func forceKernel(level int) func() {
	prevLevel, prevUse := kernelLevel, usePacked
	kernelLevel, usePacked = level, level > kernelScalar
	return func() { kernelLevel, usePacked = prevLevel, prevUse }
}

// KernelName reports the selected kernel: "scalar", "sse2", or
// "avx2".
func KernelName() string {
	switch kernelLevel {
	case kernelAVX2:
		return "avx2"
	case kernelSSE2:
		return "sse2"
	}
	return "scalar"
}

// syncRegionSSE2 computes rows×n cells (n % 4 == 0) of interior
// rows, where cur/nxt point at the first cell of the first row in the
// current/next buffers and strideBytes is the row stride in bytes. It
// returns the number of UNchanged cells (the natural output of
// accumulating equality masks) in a 32-bit lane sum, so one call
// covers fewer than 2³² cells. All 16-byte taps of every row must
// stay inside the backing arrays; syncRegionPacked establishes that.
//
//go:noescape
func syncRegionSSE2(cur, nxt unsafe.Pointer, strideBytes, n, rows uintptr) uintptr

// syncRegionAVX2 is the same contract as syncRegionSSE2 with
// n % 8 == 0 and 32-byte taps; callers must have verified detectAVX2.
//
//go:noescape
func syncRegionAVX2(cur, nxt unsafe.Pointer, strideBytes, n, rows uintptr) uintptr

// syncRegionPacked computes the h×w rectangle of interior cells whose
// top-left cell sits at flat index base, through the dispatched
// kernels: AVX2 over the 8-aligned column prefix of every row in one
// call when selected, SSE2 over the next 4-aligned chunk in one call,
// and the scalar row kernel for the tail of each row. Requires
// h, w >= 1 and a halo cell on each side of every row.
func syncRegionPacked(c, n []uint32, base, stride, w, h int) int {
	// Touch the extreme taps once so the raw-pointer kernels below are
	// covered by real bounds checks: the first row's up and left taps,
	// the last row's right and down taps, and the last output cell.
	// Every tap in between lies inside the same backing array.
	last := base + (h-1)*stride // first cell of the last row
	_ = c[base-stride]
	_ = c[base-1]
	_ = c[last+w]
	_ = c[last+stride+w-1]
	_ = n[base]
	_ = n[last+w-1]

	unchanged, k := 0, 0
	if kernelLevel >= kernelAVX2 {
		if w8 := w &^ 7; w8 > 0 {
			unchanged = int(syncRegionAVX2(
				unsafe.Pointer(&c[base]), unsafe.Pointer(&n[base]),
				uintptr(stride)*4, uintptr(w8), uintptr(h)))
			k = w8
		}
	}
	if rem := (w - k) &^ 3; rem > 0 {
		unchanged += int(syncRegionSSE2(
			unsafe.Pointer(&c[base+k]), unsafe.Pointer(&n[base+k]),
			uintptr(stride)*4, uintptr(rem), uintptr(h)))
		k += rem
	}
	changes := h*k - unchanged
	if k < w {
		// Scalar tail for the cells no vector width covers.
		for y := 0; y < h; y++ {
			changes += syncRowScalar(c, n, base+y*stride+k, stride, w-k)
		}
	}
	return changes
}
