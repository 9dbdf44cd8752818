package core

// exp_fault.go registers E24, the fault-injection & recovery
// demonstration: the same deterministic fault seed is replayed against
// three substrates — simulated MPI ranks (crash + checkpoint
// rollback), the workflow simulator (host failures + retry with
// wasted-energy accounting), and the hybrid CPU+device engine (device
// stall + graceful degradation) — and each is checked against its
// fault-free reference. The table is the repo's smoke proof of the
// acceptance criterion "same seed, same fault schedule, same
// post-recovery result".

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/fault"
	"repro/internal/ghost"
	"repro/internal/hetero"
	"repro/internal/sandpile"
	"repro/internal/wfsched"
	"repro/internal/workflow"
)

func init() {
	Register(Experiment{
		ID: "E24", Artifact: "extension (§II-IV)",
		Title: "Fault injection & recovery: crashes, host failures, and device stalls under one seed",
		Run:   runFaultDemo,
	})
}

func runFaultDemo(cfg Config) (*Result, error) {
	out := &Result{}
	tbl := out.AddTable("Recovery vs fault-free reference (seed-deterministic)",
		"substrate", "faults injected", "recoveries/retries", "matches fault-free", "overhead")

	// --- Ghost ranks: two crashes, checkpoint rollback ---------------
	size := 96
	if cfg.Quick {
		size = 48
	}
	init := sandpile.Center(uint32(size*size)).Build(size, size, rand.New(rand.NewSource(9)))
	ref := init.Clone()
	refRep, err := ghost.New(ref, ghost.WithRanks(4), ghost.WithObs(cfg.Obs)).Run()
	if err != nil {
		return nil, err
	}
	plan := cfg.Faults
	if plan == nil {
		plan = &fault.Plan{Seed: 9, Crashes: []fault.Crash{{Rank: 1, Round: 2}, {Rank: 3, Round: 4}}}
	}
	g := init.Clone()
	rep, err := ghost.New(g,
		ghost.WithRanks(4),
		ghost.WithFaults(plan),
		ghost.WithObs(cfg.Obs),
	).Run()
	if err != nil {
		return nil, err
	}
	if !g.Equal(ref) {
		return nil, fmt.Errorf("ghost: post-recovery fixed point differs from fault-free run")
	}
	tbl.AddRow("ghost (4 ranks)",
		fmt.Sprintf("%d fault events", len(rep.FaultSchedule)),
		fmt.Sprintf("%d rollbacks", rep.Recoveries),
		"yes",
		fmt.Sprintf("%+d exchanges", rep.Exchanges-refRep.Exchanges))
	for _, line := range rep.FaultSchedule {
		out.Notef("ghost fault: %s", line)
	}

	// --- Workflow hosts: 10%% failure rate, retry + backoff ----------
	sc := wfsched.Tab2Scenario()
	if cfg.Quick {
		sc.Workflow = workflow.Montage(workflow.MontageParams{Projections: 20, TargetBytes: 1e9})
	}
	sc.Obs = cfg.Obs
	refOut := wfsched.Simulate(sc, wfsched.AllCloud)
	fsc := sc
	fsc.Faults = cfg.Faults
	if fsc.Faults == nil {
		fsc.Faults = &fault.Plan{Seed: 9, HostFail: 0.1}
	}
	// A plan whose attempts cap runs out fails the experiment, not the
	// process.
	faultOut, err := wfsched.SimulateContext(context.Background(), fsc, wfsched.AllCloud)
	if err != nil {
		return nil, err
	}
	tbl.AddRow("wfsched (cloud)",
		fmt.Sprintf("%.0f%% host-fail", 100*fsc.Faults.HostFail),
		fmt.Sprintf("%d retries", faultOut.Retries),
		"completed",
		fmt.Sprintf("+%.1fs, %.4f kWh wasted", faultOut.Makespan-refOut.Makespan, faultOut.EnergyWastedKWh))

	// --- Hybrid engine: device stall, CPU reclaims ------------------
	hinit := sandpile.Center(20000).Build(64, 64, rand.New(rand.NewSource(9)))
	href := hinit.Clone()
	sandpile.StabilizeAsyncSeq(href)
	hplan := cfg.Faults
	if hplan == nil || hplan.StallIter <= 0 {
		hplan = &fault.Plan{Seed: 9, StallIter: 3}
	}
	hg := hinit.Clone()
	hrep := hetero.New(hg,
		hetero.WithTile(8, 8),
		hetero.WithCPUWorkers(2),
		hetero.WithDevice(2, 0),
		hetero.WithFaults(hplan),
		hetero.WithObs(cfg.Obs),
	).Run()
	if !hg.Equal(href) {
		return nil, fmt.Errorf("hetero: post-stall fixed point differs from reference")
	}
	tbl.AddRow("hetero (CPU+device)",
		fmt.Sprintf("stall @ iter %d", hplan.StallIter),
		fmt.Sprintf("%d degradation", hrep.Recoveries),
		"yes",
		fmt.Sprintf("device share -> %.2f", hrep.FinalFraction))

	out.Notef("replaying the same seed reproduces this table byte-for-byte; see EXPERIMENTS.md")
	return out, nil
}
