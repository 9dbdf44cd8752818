package wfsched

import (
	"fmt"
	"syscall"
	"testing"
	"time"

	"repro/internal/obs"
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
// allow: on a 2-vCPU runner the parallel entries price the optimism
// overhead instead, so read cpu-ms/op (the process CPU time per
// simulation), not ns/op. rollbacks/op and committed/op come from the
// kernel's des.* counters.
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
			reg := obs.NewRegistry()
			c := cfg
			c.Workers = workers
			c.Obs = obs.Sink{Metrics: reg}
			b.ReportAllocs()
			start := cpuTime()
			for i := 0; i < b.N; i++ {
				SimulatePlanet(c)
			}
			n := float64(b.N)
			b.ReportMetric(float64(cpuTime()-start)/float64(time.Millisecond)/n, "cpu-ms/op")
			b.ReportMetric(float64(reg.Counter("des.rollbacks").Value())/n, "rollbacks/op")
			b.ReportMetric(float64(reg.Counter("des.committed").Value())/n, "committed/op")
		})
	}
}

// cpuTime is the process CPU time (user + system) so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func BenchmarkGreedyFractionsSmall(b *testing.B) {
	sc := Tab2Scenario()
	sc.Workflow = workflow.Montage(workflow.MontageParams{Projections: 20, TargetBytes: 1e9})
	choices := Tab2Choices(sc.Workflow)
	for i := 0; i < b.N; i++ {
		GreedyFractions(sc, choices)
	}
}
