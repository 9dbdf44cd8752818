package ghost

import (
	"fmt"
	"testing"

	"repro/internal/sandpile"
)

// BenchmarkGhostWidthSweep measures the ghost-width trade-off
// end-to-end: each sub-benchmark stabilizes the same pile at a
// different K (experiment E9's timing axis).
func BenchmarkGhostWidthSweep(b *testing.B) {
	init := sandpile.Center(30000).Build(256, 256, nil)
	for _, k := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("K=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := init.Clone()
				b.StartTimer()
				if _, err := New(g, WithRanks(4), WithWidth(k)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkHaloExchange2D makes the coalesced-halo savings visible:
// allocs/op counts one buffer per message (K-row payloads are packed
// into a single contiguous buffer) instead of one per halo row, at a
// corner-carrying K where the per-row cost used to dominate.
func BenchmarkHaloExchange2D(b *testing.B) {
	init := sandpile.Center(40000).Build(128, 128, nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := init.Clone()
		b.StartTimer()
		if _, err := New(g, WithProcessGrid(2, 2), WithWidth(8)).Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRankScaling measures strong scaling over simulated ranks.
func BenchmarkRankScaling(b *testing.B) {
	init := sandpile.Center(30000).Build(256, 256, nil)
	for _, ranks := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", ranks), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				g := init.Clone()
				b.StartTimer()
				if _, err := New(g, WithRanks(ranks), WithWidth(4)).Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
