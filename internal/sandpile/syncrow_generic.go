//go:build !amd64

package sandpile

// Architectures without the SSE2/AVX2 region kernels use the scalar
// row kernel; see syncrow_amd64.go for the vector variants.

const hasPackedKernels = false

// usePacked mirrors the amd64 dispatch gate; constant false keeps the
// packed call dead-code-eliminated here.
const usePacked = false

// KernelName reports the selected kernel; always "scalar" off amd64.
func KernelName() string { return "scalar" }

func syncRegionPacked(c, n []uint32, base, stride, w, h int) int {
	panic("sandpile: packed kernels unavailable on this architecture")
}
