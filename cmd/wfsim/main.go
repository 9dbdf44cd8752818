// Command wfsim is the carbon-footprint workflow simulator: the
// command-line equivalent of the assignment's in-browser simulation
// application. Tab 1 mode simulates the Montage workflow on the local
// cluster with a chosen node count and p-state; Tab 2 mode adds the
// green cloud and per-level placement fractions.
//
// Every mode except -split builds a job spec and runs it through the
// same runners.Wfsim adapter the peachyd job server executes, so a
// CLI invocation and an HTTP submission with equal parameters share
// one code path. -split (the two-group heterogeneity ablation) is a
// research extra that stays a direct library call.
//
// Examples:
//
//	wfsim -nodes 64 -pstate 6                     # Tab 1 baseline
//	wfsim -nodes 21 -pstate 6                     # Tab 1 power-off option
//	wfsim -tab2 -fractions 0.5,0.75,1,1,1,1,1,1,1 # Tab 2 placement
//	wfsim -tab2 -optimize                          # exhaustive optimum
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/job/runners"
	"repro/internal/obs"
	"repro/internal/wfsched"
)

func main() {
	var (
		nodes     = flag.Int("nodes", 64, "Tab 1: powered-on cluster nodes")
		pstate    = flag.Int("pstate", 6, "Tab 1: p-state index 0 (lowest) .. 6 (highest)")
		tab2      = flag.Bool("tab2", false, "use the Tab 2 platform (12 nodes @ p0 + 16 green VMs)")
		fractions = flag.String("fractions", "", "Tab 2: comma-separated per-level cloud fractions")
		allCloud  = flag.Bool("all-cloud", false, "Tab 2: place every task on the cloud")
		optimize  = flag.Bool("optimize", false, "Tab 2: run the exhaustive CO2 optimizer")
		greedy    = flag.Bool("greedy", false, "Tab 2: run the greedy hill-climb optimizer")
		pareto    = flag.Bool("pareto", false, "Tab 2: print the time/CO2 Pareto frontier")
		split     = flag.Bool("split", false, "Tab 1: relax homogeneity — search two-group p-state clusters")
		metrics   = flag.Bool("metrics", false, "print a metrics snapshot (JSON) after the run")
		traceFile = flag.String("trace", "", "write a Perfetto-loadable Chrome trace to this file")
		obsListen = flag.String("obs-listen", "", "serve live telemetry (/metrics /healthz /progress /events /debug/pprof/) on this address, e.g. :9090 (:0 picks a port)")
		faults    = flag.String("faults", "", "host-failure plan, e.g. seed=7,hostfail=0.1,repair=5 (see internal/fault)")
		desWorker = flag.Int("des-workers", 0, "DES kernel workers: >1 runs the optimistic Time Warp engine (byte-identical outcomes), 0/1 the sequential kernel")
		ckptDir   = flag.String("checkpoint", "", "-optimize/-pareto: write sweep snapshots into this directory")
		resumeDir = flag.String("resume", "", "-optimize/-pareto: resume the sweep from this directory")
		ckptEvery = flag.Int64("checkpoint-every", 256, "placements evaluated between sweep snapshots")
	)
	flag.Parse()
	if err := checkFlags(*split, *faults); err != nil {
		fmt.Fprintf(os.Stderr, "wfsim: %v\n", err)
		flag.Usage()
		os.Exit(2)
	}

	if *faults != "" {
		if _, err := fault.Parse(*faults); err != nil {
			fatalf("%v", err)
		}
	}

	sink, flush := obs.Setup(*metrics, *traceFile)
	srv, err := obs.ServeTelemetry(&sink, *obsListen)
	if err != nil {
		fatalf("%v", err)
	}
	defer srv.Close()
	ck, err := ckpt.ForCLI("wfsim", *ckptDir, *resumeDir, *ckptEvery, sink)
	if err != nil {
		fatalf("%v", err)
	}
	if ck != nil && !(*tab2 && (*optimize || *pareto)) {
		fatalf("-checkpoint/-resume apply to the sweep modes: -tab2 with -optimize or -pareto")
	}
	defer func() {
		if !sink.Enabled() {
			return
		}
		if err := flush(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		if *traceFile != "" {
			fmt.Printf("wrote trace to %s\n", *traceFile)
		}
	}()

	if *split {
		base, _ := wfsched.Tab1Base()
		base.Obs = sink
		base.DESWorkers = *desWorker
		res, err := wfsched.HeterogeneousAblation(base, wfsched.Tab1MaxNodes, wfsched.Tab1BoundSec)
		if err != nil {
			fatalf("%v", err)
		}
		fmt.Printf("homogeneous optimum: %v -> %v\n", res.Homogeneous, res.HomogeneousOutcome)
		fmt.Printf("two-group optimum:   %v -> %v\n", res.Split, res.SplitOutcome)
		fmt.Printf("CO2 saved by heterogeneity: %.1f%%\n",
			100*(1-res.SplitOutcome.CO2/res.HomogeneousOutcome.CO2))
		return
	}

	// Map the flag surface onto the adapter's parameter schema.
	params := runners.WfsimParams{Faults: *faults}
	if *desWorker != 0 {
		params.DESWorkers = desWorker
	}
	switch {
	case !*tab2:
		params.Mode = "tab1"
		params.Nodes, params.PState = nodes, pstate
	case *pareto:
		params.Mode = "pareto"
	case *optimize:
		params.Mode = "optimize"
	case *greedy:
		params.Mode = "greedy"
	default:
		params.Mode = "tab2"
		params.AllCloud = *allCloud
		if *fractions != "" && !*allCloud {
			parts := strings.Split(*fractions, ",")
			fr := make([]float64, len(parts))
			for i, p := range parts {
				v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
				if err != nil {
					fatalf("bad fraction %q", p)
				}
				fr[i] = v
			}
			params.Fractions = fr
		}
	}
	raw, err := json.Marshal(params)
	if err != nil {
		fatalf("%v", err)
	}
	spec := job.Spec{
		APIVersion: job.APIVersion, Kind: "wfsim", Tenant: "cli",
		CheckpointEvery: *ckptEvery, Params: raw,
	}
	adapter := &runners.Wfsim{}
	if err := adapter.Validate(spec); err != nil {
		fatalf("%v", err)
	}

	prog := sink.Progress
	if prog == nil {
		prog = obs.NewProgress(nil)
	}
	ctx := job.WithEnv(context.Background(), job.Env{Obs: sink, Ckpt: ck})
	start := time.Now()
	res, err := adapter.Run(ctx, spec, prog)
	if err != nil {
		fatalf("%v", err)
	}
	elapsed := time.Since(start).Round(time.Millisecond)
	var out runners.WfsimOutput
	if err := json.Unmarshal(res.Output, &out); err != nil {
		fatalf("%v", err)
	}

	switch out.Mode {
	case "tab1":
		_, ps := wfsched.Tab1Base()
		cfg := wfsched.ClusterConfig{Nodes: *nodes, PState: *pstate}
		fmt.Printf("Tab 1: %v (%s)\n%v\n", cfg, ps[*pstate], out.Outcome)
		if *out.MeetsBound {
			fmt.Printf("meets the %.0f s bound\n", wfsched.Tab1BoundSec)
		} else {
			fmt.Printf("MISSES the %.0f s bound\n", wfsched.Tab1BoundSec)
		}
	case "pareto":
		fmt.Printf("Pareto frontier over %d placements (in %s):\n", out.Simulations, elapsed)
		fmt.Printf("%10s  %10s  %s\n", "time(s)", "gCO2e", "fractions")
		for _, f := range out.Frontier {
			fmt.Printf("%10.1f  %10.2f  %v\n", f.Makespan, f.CO2, f.Fractions)
		}
	case "optimize":
		fmt.Printf("exhaustive optimum (in %s): fractions=%v\n%v\n", elapsed, out.Fractions, out.Outcome)
	case "greedy":
		fmt.Printf("greedy optimum (%d simulations): fractions=%v\n%v\n", out.Simulations, out.Fractions, out.Outcome)
	default: // tab2
		switch {
		case *allCloud:
			fmt.Printf("all-cloud: %v\n", out.Outcome)
		case len(out.Fractions) > 0:
			fmt.Printf("fractions %v: %v\n", out.Fractions, out.Outcome)
		default:
			fmt.Printf("all-local: %v\n", out.Outcome)
		}
	}
}

// checkFlags rejects flag combinations no mode runs: -split compares
// fault-free clusters, so it takes no -faults plan.
func checkFlags(split bool, faults string) error {
	if split && faults != "" {
		return errors.New("-split simulates fault-free clusters and cannot take -faults")
	}
	return nil
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "wfsim: "+format+"\n", args...)
	os.Exit(1)
}
