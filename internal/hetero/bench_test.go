package hetero

import (
	"testing"
	"time"

	"repro/internal/sandpile"
)

// Ablation benchmarks for the hybrid scheduler: what the adaptive
// fraction controller buys over fixed splits, and what the device's
// launch overhead costs — the design choices DESIGN.md calls out for
// the CPU+GPU half of assignment 4.

func benchHybrid(b *testing.B, p Params) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := sandpile.Sparse(0.002, 1000).Build(128, 128, nil)
		b.StartTimer()
		run(g, p)
	}
}

func BenchmarkHybridAdaptive(b *testing.B) {
	benchHybrid(b, Params{
		TileH: 16, TileW: 16, CPUWorkers: 3,
		Device: DeviceProfile{Workers: 1, LaunchOverhead: 20 * time.Microsecond},
		Adapt:  true,
	})
}

func BenchmarkHybridFixedHalf(b *testing.B) {
	benchHybrid(b, Params{
		TileH: 16, TileW: 16, CPUWorkers: 3,
		Device:          DeviceProfile{Workers: 1, LaunchOverhead: 20 * time.Microsecond},
		InitialFraction: 0.5, Adapt: false,
	})
}

func BenchmarkHybridCPUOnly(b *testing.B) {
	benchHybrid(b, Params{TileH: 16, TileW: 16, CPUWorkers: 4})
}

func BenchmarkHybridLaunchOverheadSweep(b *testing.B) {
	for _, overhead := range []time.Duration{0, 50 * time.Microsecond, 500 * time.Microsecond} {
		b.Run(overhead.String(), func(b *testing.B) {
			benchHybrid(b, Params{
				TileH: 16, TileW: 16, CPUWorkers: 3,
				Device: DeviceProfile{Workers: 2, LaunchOverhead: overhead},
				Adapt:  true,
			})
		})
	}
}
