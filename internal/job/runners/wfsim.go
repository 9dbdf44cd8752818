package runners

import (
	"context"

	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/wfsched"
)

// WfsimParams is the "wfsim" kind's parameter schema: the modes of
// cmd/wfsim as one enum plus their knobs.
type WfsimParams struct {
	// Mode selects the experiment:
	//   tab1      - cluster sizing: Nodes powered-on nodes at PState
	//   tab2      - hybrid placement with per-level Fractions (or
	//               AllCloud); empty fractions means all-local
	//   optimize  - Tab 2 exhaustive CO2 optimizer (checkpointed)
	//   pareto    - Tab 2 time/CO2 Pareto frontier (checkpointed)
	//   greedy    - Tab 2 greedy hill-climb
	Mode string `json:"mode,omitempty"`
	// Nodes and PState configure tab1; defaults 64 and 6.
	Nodes  *int `json:"nodes,omitempty"`
	PState *int `json:"pstate,omitempty"`
	// Fractions are tab2's per-level cloud shares.
	Fractions []float64 `json:"fractions,omitempty"`
	// AllCloud places every tab2 task on the cloud.
	AllCloud bool `json:"allCloud,omitempty"`
	// Faults is a host-failure plan string (see internal/fault).
	Faults string `json:"faults,omitempty"`
	// DESWorkers picks how the DES kernel executes the simulator's
	// model: > 1 as optimistic Time Warp with that many workers, 0 or
	// 1 on its sequential heap. Outcomes are byte-identical either
	// way, so this is purely a throughput knob.
	DESWorkers *int `json:"desWorkers,omitempty"`
}

func (p *WfsimParams) withDefaults() {
	if p.Mode == "" {
		p.Mode = "tab1"
	}
	if p.Nodes == nil {
		n := wfsched.Tab1MaxNodes
		p.Nodes = &n
	}
	if p.PState == nil {
		ps := 6
		p.PState = &ps
	}
}

// WfsimOutput is the "wfsim" kind's result schema. Outcome fields
// are the simulator's (makespan seconds, energy kWh, gCO2e).
type WfsimOutput struct {
	Mode    string          `json:"mode"`
	Outcome wfsched.Outcome `json:"outcome"`
	// Fractions echoes the simulated (tab2) or best-found
	// (optimize/greedy) placement.
	Fractions []float64 `json:"fractions,omitempty"`
	// Frontier is the pareto mode's time/CO2 frontier.
	Frontier []FrontierPoint `json:"frontier,omitempty"`
	// Simulations counts placements evaluated (greedy, optimize,
	// pareto).
	Simulations int `json:"simulations,omitempty"`
	// MeetsBound reports the Tab 1 3-minute execution bound.
	MeetsBound *bool `json:"meetsBound,omitempty"`
}

// FrontierPoint is one Pareto-optimal placement.
type FrontierPoint struct {
	Fractions []float64 `json:"fractions"`
	Makespan  float64   `json:"makespan"`
	CO2       float64   `json:"co2"`
}

// Wfsim adapts the workflow-scheduling simulator to job.Runner.
type Wfsim struct{}

// decode parses and checks a spec without building a scenario, so
// Validate costs a JSON decode and not a workflow. It returns the
// parsed fault plan (nil without one) for Run to use.
func (r *Wfsim) decode(spec job.Spec) (WfsimParams, *fault.Plan, error) {
	var p WfsimParams
	if err := decodeParams(spec, &p); err != nil {
		return p, nil, err
	}
	p.withDefaults()
	switch p.Mode {
	case "tab1":
		if n := len(platform.DefaultPStates()); *p.PState < 0 || *p.PState >= n {
			return p, nil, job.Badf("pstate must be 0..%d", n-1)
		}
		if *p.Nodes < 1 || *p.Nodes > wfsched.Tab1MaxNodes {
			return p, nil, job.Badf("nodes must be 1..%d", wfsched.Tab1MaxNodes)
		}
	case "tab2", "optimize", "pareto", "greedy":
		for _, f := range p.Fractions {
			if f < 0 || f > 1 {
				return p, nil, job.Badf("fractions must be in [0,1]")
			}
		}
	default:
		return p, nil, job.Badf("unknown wfsim mode %q", p.Mode)
	}
	var plan *fault.Plan
	if p.Faults != "" {
		var err error
		if plan, err = fault.Parse(p.Faults); err != nil {
			return p, nil, job.Badf("%v", err)
		}
		if plan.HostFail >= 1 && plan.Retry.MaxAttempts == 0 {
			// Every attempt fails and nothing caps the retries: the
			// simulation would never finish.
			return p, nil, job.Badf("faults: hostfail=1 needs an attempts cap")
		}
	}
	if p.DESWorkers != nil && *p.DESWorkers < 0 {
		return p, nil, job.Badf("desWorkers must be >= 0")
	}
	return p, plan, nil
}

// desWorkers returns the decoded worker count, 0 (sequential) when
// the field was absent.
func (p *WfsimParams) desWorkers() int {
	if p.DESWorkers == nil {
		return 0
	}
	return *p.DESWorkers
}

func (r *Wfsim) Validate(spec job.Spec) error {
	_, _, err := r.decode(spec)
	return err
}

func (r *Wfsim) Run(ctx context.Context, spec job.Spec, prog *obs.Progress) (job.Result, error) {
	p, plan, err := r.decode(spec)
	if err != nil {
		return job.Result{}, err
	}
	env := job.EnvFrom(ctx)
	out := WfsimOutput{Mode: p.Mode}
	prog.Update("wfsim", obs.F("started", 1))

	if p.Mode == "tab1" {
		base, ps := wfsched.Tab1Base()
		base = base.With(wfsched.WithObs(env.Obs), wfsched.WithFaults(plan),
			wfsched.WithDESWorkers(p.desWorkers()))
		cfg := wfsched.ClusterConfig{Nodes: *p.Nodes, PState: *p.PState}
		o, err := wfsched.SimulateClusterContext(ctx, base, ps, cfg)
		if err != nil {
			return job.Result{}, err
		}
		out.Outcome = o
		meets := o.Makespan <= wfsched.Tab1BoundSec
		out.MeetsBound = &meets
		prog.Update("wfsim", obs.F("makespan", o.Makespan))
		return marshalOutput("wfsim", out)
	}

	sc := wfsched.Tab2Scenario().With(wfsched.WithObs(env.Obs), wfsched.WithFaults(plan),
		wfsched.WithDESWorkers(p.desWorkers()))
	switch p.Mode {
	case "tab2":
		place := wfsched.AllLocal
		switch {
		case p.AllCloud:
			place = wfsched.AllCloud
		case len(p.Fractions) > 0:
			place = wfsched.LevelFractions(sc.Workflow, p.Fractions)
			out.Fractions = p.Fractions
		}
		o, err := wfsched.SimulateContext(ctx, sc, place)
		if err != nil {
			return job.Result{}, err
		}
		out.Outcome = o
	case "greedy":
		best, sims, err := wfsched.GreedyFractionsContext(ctx, sc, wfsched.Tab2Choices(sc.Workflow))
		if err != nil {
			return job.Result{}, err
		}
		out.Outcome = best.Outcome
		out.Fractions = best.Fractions
		out.Simulations = sims
	case "optimize", "pareto":
		chunk := int(spec.CheckpointEvery)
		if chunk <= 0 {
			chunk = 256
		}
		results, err := wfsched.EvaluateFractionsCheckpointed(
			sc, wfsched.Tab2Choices(sc.Workflow), env.Ckpt, chunk)
		if err != nil {
			return job.Result{}, err
		}
		if err := ctx.Err(); err != nil {
			return job.Result{}, err
		}
		out.Simulations = len(results)
		if p.Mode == "optimize" {
			best := results[0]
			for _, fr := range results[1:] {
				if fr.Outcome.CO2 < best.Outcome.CO2 {
					best = fr
				}
			}
			out.Outcome = best.Outcome
			out.Fractions = best.Fractions
		} else {
			frontier := wfsched.ParetoFrontier(results)
			out.Frontier = make([]FrontierPoint, len(frontier))
			for i, fr := range frontier {
				out.Frontier[i] = FrontierPoint{
					Fractions: fr.Fractions,
					Makespan:  fr.Outcome.Makespan,
					CO2:       fr.Outcome.CO2,
				}
			}
			if len(frontier) > 0 {
				out.Outcome = frontier[0].Outcome
			}
		}
	}
	prog.Update("wfsim", obs.F("makespan", out.Outcome.Makespan))
	return marshalOutput("wfsim", out)
}

var _ job.Runner = (*Wfsim)(nil)
