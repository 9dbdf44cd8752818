package wfsched

import (
	"fmt"
	"testing"

	"repro/internal/workflow"
)

// Simulator throughput benchmarks: simulations per second bound how
// large a placement search (E20) can afford to be.

func BenchmarkSimulateTab1Full(b *testing.B) {
	base, ps := Tab1Base()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		SimulateCluster(base, ps, ClusterConfig{Nodes: 64, PState: 6})
	}
}

func BenchmarkSimulateTab2AllCloud(b *testing.B) {
	sc := Tab2Scenario()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(sc, AllCloud)
	}
}

func BenchmarkSimulateTab2Mixed(b *testing.B) {
	sc := Tab2Scenario()
	fr := []float64{0.5, 0.75, 1, 1, 1, 1, 1, 1, 1}
	place := LevelFractions(sc.Workflow, fr)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Simulate(sc, place)
	}
}

func BenchmarkBossHeuristicFull(b *testing.B) {
	base, ps := Tab1Base()
	for i := 0; i < b.N; i++ {
		if _, _, ok := BossHeuristic(base, ps, Tab1MaxNodes, Tab1BoundSec); !ok {
			b.Fatal("infeasible")
		}
	}
}

// BenchmarkTimeWarpSweep runs the planet-scale datacenter scenario
// (16 clusters, 16k tasks, cross-cluster layered DAG) across the DES
// worker grid. workers=1 is the sequential kernel baseline; the
// parallel entries measure Time Warp end-to-end — speculation, the
// undo log, rollback, GVT. Speedup is what this machine's cores
// allow: on a single-vCPU runner the parallel entries price the
// optimism overhead instead.
func BenchmarkTimeWarpSweep(b *testing.B) {
	cfg := PlanetConfig{
		Clusters: 16, Hosts: 32, Tasks: 1000,
		Layers: 16, Degree: 2,
		Latency: 0.05, Speed: 5, BusyW: 90,
		Seed: 0xB0A7,
		// Bound optimism to two credit latencies past GVT. Unthrottled
		// speculation on an oversubscribed core cascades into rollback
		// storms (100x); the window keeps mis-speculation proportional
		// to the real lookahead of the topology.
		Window: 0.1,
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			c := cfg
			c.Workers = workers
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				SimulatePlanet(c)
			}
		})
	}
}

func BenchmarkGreedyFractionsSmall(b *testing.B) {
	sc := Tab2Scenario()
	sc.Workflow = workflow.Montage(workflow.MontageParams{Projections: 20, TargetBytes: 1e9})
	choices := Tab2Choices(sc.Workflow)
	for i := 0; i < b.N; i++ {
		GreedyFractions(sc, choices)
	}
}
