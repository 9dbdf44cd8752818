package main

// planet.go drives the planet-scale Time Warp scenario in this
// process, with no I/O: the CPU-bound path where the DES kernel is the
// only layer. planet-seq runs the sequential kernel, planet-warp the
// optimistic one at two workers; on a 2-vCPU machine warp prices the
// optimism, it does not show a speed-up.

import (
	"math/rand"
	"time"

	"repro/internal/obs"
	"repro/internal/wfsched"
)

// planetDigests pins SimulatePlanet's committed digest for each of the
// 16 topologies a seed selects; both kernels must reproduce it.
var planetDigests = [16]uint64{
	0x520b7450f78144b4, 0x78323b1e7ecbba8c, 0xccc854227ebc9b40, 0x4d0bace5083579df,
	0xcae1fcd020af88ed, 0x46b423bcf2c748ec, 0xea2e1b4ecc8b0af5, 0xc906f9431bbf7f9d,
	0x3c799f01fa01794e, 0x6a60a9ee5dc892b2, 0xfabad3b30799c191, 0x6dac326fa06cff85,
	0xb0fe30fe2d5275f4, 0x87e523f0a77806da, 0x4117db632ac629b0, 0xe306765535365f0f,
}

// planetTopologies is how many of the pinned topologies one run cycles
// through; the seed picks which. Topologies differ in cost, and a mix
// of several keeps the seed from deciding a run's reading.
const planetTopologies = 4

func pickTopologies(seed int64) []int {
	return rand.New(rand.NewSource(seed)).Perm(len(planetDigests))[:planetTopologies]
}

// planetConfig is BenchmarkTimeWarpSweep's scenario (16 clusters of 32
// hosts, 1000 tasks, 16 layers, degree 2, optimism window 0.1) with a
// topology seed: about 20 ms on the sequential kernel, so a run holds
// hundreds of simulations.
func planetConfig(topology, workers int) wfsched.PlanetConfig {
	return wfsched.PlanetConfig{
		Clusters: 16, Hosts: 32, Tasks: 1000, Layers: 16, Degree: 2,
		Latency: 0.05, Speed: 5, BusyW: 90, Window: 0.1,
		Seed:    0xB0A7 + uint64(topology),
		Workers: workers,
	}
}

func runPlanetSeq(rc *runCtx) (*measurement, error)  { return runPlanet(rc, 1) }
func runPlanetWarp(rc *runCtx) (*measurement, error) { return runPlanet(rc, 2) }

func runPlanet(rc *runCtx, workers int) (*measurement, error) {
	m := &measurement{}
	topos := pickTopologies(rc.seed)
	// The set-up, once per topology: the sequential kernel's outcome,
	// which must carry the pinned digest and which every simulation on
	// either kernel must reproduce, and on warp one simulation on the
	// run's kernel, checked against it. The sequential time is the one
	// both kernels are priced against.
	refs := make([]wfsched.PlanetOutcome, len(topos))
	cfgs := make([]wfsched.PlanetConfig, len(topos))
	var refMS []float64
	for i, topo := range topos {
		cfgs[i] = planetConfig(topo, workers)
		base, t0 := sampleProc(), time.Now()
		refs[i] = wfsched.SimulatePlanet(planetConfig(topo, 1))
		refMS = append(refMS, ms(time.Since(t0)))
		if refs[i].Digest != planetDigests[topo] {
			m.mismatches++
		}
		if workers > 1 && wfsched.SimulatePlanet(cfgs[i]) != refs[i] {
			m.mismatches++
		}
		m.setupCPU = append(m.setupCPU, sampleProc().sub(base).CPU.Seconds())
		m.setupWall = append(m.setupWall, time.Since(t0).Seconds())
	}

	var reg *obs.Registry
	if rc.traced() {
		reg = obs.NewRegistry()
		for i := range cfgs {
			cfgs[i].Obs = obs.Sink{Metrics: reg}
		}
	}
	track := rc.tracer.Track("bench", 0, "SimulatePlanet")
	var lags []float64
	var simTime time.Duration
	base := sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	prevEnd := start
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		k := i % len(cfgs)
		ts := rc.tracer.Now()
		t0 := time.Now()
		lags = append(lags, ms(t0.Sub(prevEnd)))
		out := wfsched.SimulatePlanet(cfgs[k])
		prevEnd = time.Now()
		d := prevEnd.Sub(t0)
		rc.tracer.Span(track, "SimulatePlanet", ts, rc.tracer.Now()-ts, obs.Arg{Key: "topology", Value: int64(topos[k])})
		m.attempted++
		if out != refs[k] {
			m.mismatches++
			m.failed++
		}
		m.lat = append(m.lat, ms(d))
		simTime += d
	}
	used := sampleProc().sub(base)
	ops := float64(len(m.lat))
	m.cpuMS = ms(used.CPU) / ops
	m.rssMB = used.MaxRSSMB
	m.extra = map[string]any{"topologies": topos, "workers": workers}
	if !rc.traced() {
		return m, nil
	}

	c := reg.Snapshot().Counters
	committed, rolled := float64(c["des.committed"]), float64(c["des.rolled_back"])
	m.layer("reference_ms", "ms", mean(refMS))
	m.layer("gc_cpu_frac", "ratio", ratio(used.GCCPU, used.TotalCPU))
	m.layer("alloc_mb_per_op", "MB", float64(used.Alloc)/ops/(1<<20))
	m.layer("gen_lag_p99_ms", "ms", percentile(lags, 99))
	m.layer("des.committed_per_op", "count", committed/ops)
	m.layer("des.rollbacks_per_op", "count", float64(c["des.rollbacks"])/ops)
	m.layer("des.rolled_back_per_op", "count", rolled/ops)
	m.layer("des.antimessages_per_op", "count", float64(c["des.antimessages"])/ops)
	m.layer("des.useful_ratio", "ratio", ratio(committed, committed+rolled))
	m.layer("des.events_per_s", "1/s", committed/simTime.Seconds())
	return m, nil
}
