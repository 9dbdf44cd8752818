package sandpile

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/grid"
)

// Dispatch-selection logic: the pure function behind startup and the
// SANDPILE_KERNEL override, including the graceful non-AVX2 fallback.
func TestSelectKernel(t *testing.T) {
	cases := []struct {
		avx2  bool
		force string
		want  int
	}{
		{true, "", kernelAVX2},
		{false, "", kernelSSE2},
		{true, "avx2", kernelAVX2},
		{false, "avx2", kernelSSE2}, // requested but unavailable: fall back, don't crash
		{true, "sse2", kernelSSE2},
		{false, "sse2", kernelSSE2},
		{true, "scalar", kernelScalar},
		{false, "scalar", kernelScalar},
		{true, "bogus", kernelAVX2}, // unrecognized override: best available
		{false, "bogus", kernelSSE2},
	}
	for _, c := range cases {
		if got := selectKernel(c.avx2, c.force); got != c.want {
			t.Errorf("selectKernel(avx2=%v, force=%q) = %d, want %d", c.avx2, c.force, got, c.want)
		}
	}
}

func TestKernelNameTracksLevel(t *testing.T) {
	for _, c := range []struct {
		level int
		want  string
	}{{kernelScalar, "scalar"}, {kernelSSE2, "sse2"}, {kernelAVX2, "avx2"}} {
		restore := forceKernel(c.level)
		if got := KernelName(); got != c.want {
			t.Errorf("KernelName at level %d = %q, want %q", c.level, got, c.want)
		}
		restore()
	}
}

// availableKernels lists every dispatch level this machine can
// actually execute (scalar and SSE2 always; AVX2 when detected).
func availableKernels() []int {
	ks := []int{kernelScalar, kernelSSE2}
	if hasAVX2 {
		ks = append(ks, kernelAVX2)
	}
	return ks
}

// TestKernelCrossVariantOracle force-selects each available kernel and
// runs the same random rows through SyncRow, requiring every variant
// to agree with the scalar reference cell for cell — the randomized
// oracle the SSE2 kernel was landed under, now spanning the whole
// dispatch matrix (widths cross both the 4-lane and 8-lane
// boundaries, so AVX2 body + SSE2 remainder + scalar tail all run).
func TestKernelCrossVariantOracle(t *testing.T) {
	if !hasAVX2 {
		t.Log("AVX2 unavailable; oracle covers scalar and sse2 only")
	}
	for _, level := range availableKernels() {
		restore := forceKernel(level)
		t.Run(KernelName(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + level)))
			for trial := 0; trial < 200; trial++ {
				h := 3 + rng.Intn(6)
				w := 3 + rng.Intn(60)
				cur := grid.New(h, w)
				cells := cur.Cells()
				for i := range cells {
					cells[i] = uint32(rng.Intn(12))
				}
				next := grid.New(h, w)
				ref := grid.New(h, w)
				next.CopyFrom(cur)
				ref.CopyFrom(cur)

				y := rng.Intn(h)
				x0 := rng.Intn(w)
				x1 := x0 + 1 + rng.Intn(w-x0)

				got := SyncRow(cur, next, y, x0, x1)
				want := scalarRowRef(cur, ref, y, x0, x1)
				if got != want {
					t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): change count %d, want %d",
						trial, y, x0, x1, h, w, got, want)
				}
				nc, rc := next.Cells(), ref.Cells()
				for i := range nc {
					if nc[i] != rc[i] {
						t.Fatalf("trial %d (y=%d x=[%d,%d) of %dx%d): cell %d = %d, want %d",
							trial, y, x0, x1, h, w, i, nc[i], rc[i])
					}
				}
			}
		})
		restore()
	}
}

// TestSyncRegionMatchesScalarReference force-selects each available
// kernel and sweeps every rectangle of heights 1–6 and widths 1–70 (so
// the AVX2 8-aligned prefix, the SSE2 4-aligned chunk and the scalar
// tail each occur alone and together) at random offsets in a slightly
// larger grid, with values far past Threshold. The change count and
// every cell of the rectangle must match the scalar reference, and no
// cell of next outside the rectangle, halo included, may be written.
func TestSyncRegionMatchesScalarReference(t *testing.T) {
	const sentinel = 0xA5A5A5A5 // no stencil output can equal it
	for _, level := range availableKernels() {
		restore := forceKernel(level)
		t.Run(KernelName(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(2000 + level)))
			for h := 1; h <= 6; h++ {
				for w := 1; w <= 70; w++ {
					for trial := 0; trial < 3; trial++ {
						gh, gw := h+rng.Intn(4), w+rng.Intn(5)
						y0, x0 := rng.Intn(gh-h+1), rng.Intn(gw-w+1)
						y1, x1 := y0+h, x0+w
						cur := grid.New(gh, gw)
						for i, c := 0, cur.Cells(); i < len(c); i++ {
							if rng.Intn(4) == 0 {
								c[i] = uint32(rng.Intn(1 << 24))
							} else {
								c[i] = uint32(rng.Intn(12))
							}
						}
						next := grid.New(gh, gw)
						ref := grid.New(gh, gw)
						for i, n := 0, next.Cells(); i < len(n); i++ {
							n[i] = sentinel
						}
						ref.CopyFrom(next)

						got := SyncRegion(cur, next, y0, y1, x0, x1)
						want := 0
						for y := y0; y < y1; y++ {
							want += scalarRowRef(cur, ref, y, x0, x1)
						}
						where := fmt.Sprintf("[%d,%d)x[%d,%d) of %dx%d", y0, y1, x0, x1, gh, gw)
						if got != want {
							t.Fatalf("%s: change count %d, want %d", where, got, want)
						}
						nc, rc := next.Cells(), ref.Cells()
						for i := range nc {
							if nc[i] != rc[i] {
								t.Fatalf("%s: flat cell %d (row %d, col %d of the halo'd grid) = %#x, want %#x",
									where, i, i/next.Stride(), i%next.Stride(), nc[i], rc[i])
							}
						}
					}
				}
			}
		})
		restore()
	}
}

// TestKernelVariantsAgreeOnFullRelaxation runs a whole avalanche to
// fixpoint under each kernel and requires byte-identical final grids
// and identical change counts per step — variant divergence that a
// single-row oracle could miss compounds over thousands of steps.
func TestKernelVariantsAgreeOnFullRelaxation(t *testing.T) {
	type result struct {
		name    string
		steps   int
		changes []int
		cells   []uint32
	}
	var results []result
	for _, level := range availableKernels() {
		restore := forceKernel(level)
		cur := grid.New(33, 67)
		next := grid.New(33, 67)
		cur.Set(16, 33, 50000)
		cur.Set(5, 60, 9999)
		var changes []int
		steps := 0
		for {
			ch := 0
			for y := 0; y < 33; y++ {
				ch += SyncRow(cur, next, y, 0, 67)
			}
			changes = append(changes, ch)
			cur, next = next, cur
			steps++
			if ch == 0 || steps > 200000 {
				break
			}
		}
		cells := append([]uint32(nil), cur.Cells()...)
		results = append(results, result{KernelName(), steps, changes, cells})
		restore()
	}
	for _, r := range results[1:] {
		if r.steps != results[0].steps {
			t.Fatalf("%s relaxed in %d steps, %s in %d", r.name, r.steps, results[0].name, results[0].steps)
		}
		for i := range r.changes {
			if r.changes[i] != results[0].changes[i] {
				t.Fatalf("step %d: %s changed %d cells, %s changed %d",
					i, r.name, r.changes[i], results[0].name, results[0].changes[i])
			}
		}
		for i := range r.cells {
			if r.cells[i] != results[0].cells[i] {
				t.Fatalf("final grids diverge at cell %d: %s=%d %s=%d",
					i, r.name, r.cells[i], results[0].name, results[0].cells[i])
			}
		}
	}
	if testing.Verbose() {
		fmt.Printf("relaxation agreed across %d kernels in %d steps\n", len(results), results[0].steps)
	}
}
