package wfsched

// options.go gives Scenario the functional-options constructor idiom
// the other substrates use (sched.New, ghost.New, hetero.New), so a
// job submission decoded from the wire maps field-for-field onto
// option calls. Scenario literals keep working; NewScenario and
// Scenario.With are the preferred spellings.

import (
	"repro/internal/carbon"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workflow"
)

// ScenarioOption mutates a Scenario under construction.
type ScenarioOption func(*Scenario)

// NewScenario assembles a Scenario for a workflow from options.
// Defaults match a zero Scenario literal — intensity defaults are
// applied at simulation time, not here.
func NewScenario(w *workflow.Workflow, opts ...ScenarioOption) Scenario {
	sc := Scenario{Workflow: w}
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// With returns a copy of sc with the options applied — the spelling
// for deriving a variant from a canonical template such as
// Tab2Scenario().
func (sc Scenario) With(opts ...ScenarioOption) Scenario {
	for _, o := range opts {
		o(&sc)
	}
	return sc
}

// WithLocalNodes sets the number of powered-on cluster nodes.
func WithLocalNodes(n int) ScenarioOption {
	return func(sc *Scenario) { sc.LocalNodes = n }
}

// WithPState sets the uniform p-state of the powered-on nodes.
func WithPState(ps platform.PState) ScenarioOption {
	return func(sc *Scenario) { sc.PState = ps }
}

// WithLocalIntensity sets the cluster power source's carbon intensity.
func WithLocalIntensity(i carbon.Intensity) ScenarioOption {
	return func(sc *Scenario) { sc.LocalIntensity = i }
}

// WithCloudVMs provisions n cloud VM instances at speed Gflop/s each.
func WithCloudVMs(n int, speed float64) ScenarioOption {
	return func(sc *Scenario) {
		sc.CloudVMs = n
		sc.VMSpeed = speed
	}
}

// WithVMPower sets the cloud-side busy/idle draw in watts.
func WithVMPower(busy, idle float64) ScenarioOption {
	return func(sc *Scenario) {
		sc.VMBusyPower = busy
		sc.VMIdlePower = idle
	}
}

// WithCloudIntensity sets the cloud source's carbon intensity.
func WithCloudIntensity(i carbon.Intensity) ScenarioOption {
	return func(sc *Scenario) { sc.CloudIntensity = i }
}

// WithLink describes the cluster<->cloud connection: bandwidth in
// bytes/s and latency in seconds.
func WithLink(bandwidth, latency float64) ScenarioOption {
	return func(sc *Scenario) {
		sc.LinkBandwidth = bandwidth
		sc.LinkLatency = latency
	}
}

// WithObs attaches the observability layer.
func WithObs(sink obs.Sink) ScenarioOption {
	return func(sc *Scenario) { sc.Obs = sink }
}

// WithFaults enables deterministic host-failure injection.
func WithFaults(plan *fault.Plan) ScenarioOption {
	return func(sc *Scenario) { sc.Faults = plan }
}

// WithDESWorkers picks how the des.Warp kernel executes the
// simulator's model: n > 1 as optimistic Time Warp with n workers, 0
// or 1 on its sequential heap. Outcomes are byte-identical either
// way.
func WithDESWorkers(n int) ScenarioOption {
	return func(sc *Scenario) { sc.DESWorkers = n }
}
