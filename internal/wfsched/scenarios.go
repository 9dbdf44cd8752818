package wfsched

// scenarios.go pins down the assignment's two canonical platforms so
// every bench, example, and test reproduces the same experiments.

import (
	"sync"

	"repro/internal/platform"
	"repro/internal/workflow"
)

// Tab1 constants: "this workflow is to be executed on a 64-node
// cluster powered by a power plant that generates 291 gCO2e per kWh";
// Question 2 imposes a 3-minute execution bound.
const (
	Tab1MaxNodes = 64
	Tab1BoundSec = 180.0
)

// Tab2 constants: "the organization has purchased 16 virtual machine
// instances on a remote, green cloud ... the organization now only
// powers on 12 nodes of the local cluster, all operating at the
// lowest possible p-state".
const (
	Tab2LocalNodes = 12
	Tab2CloudVMs   = 16
	// Tab2VMSpeed is the per-VM speed (Gflop/s): a bit faster than a
	// downclocked local node, slower than a top-state one.
	Tab2VMSpeed = 6.0
	// Tab2LinkBandwidth (bytes/s) keeps data movement a first-order
	// concern: staging the 7.5 GB footprint is comparable to compute.
	Tab2LinkBandwidth = 25e6
	Tab2LinkLatency   = 0.05
	// Cloud VM power draw (charged at the green intensity).
	Tab2VMBusyPower = 150.0
	Tab2VMIdlePower = 10.0
)

// montage738 is the default Montage-738 workflow, built on first use
// and shared by every scenario after that: simulations only read a
// Workflow (see its doc), so one instance serves every concurrent job.
// It is built lazily rather than at package init, because every
// process importing wfsched (peachyd, fleet workers) would otherwise
// pay for it at start-up whether it simulates or not.
var montage738 = sync.OnceValue(func() *workflow.Workflow {
	return workflow.Montage(workflow.MontageParams{})
})

// BaseScenario returns the shared pieces of both tabs: the default
// Montage-738 workflow. Callers override the platform fields. Every
// call returns the same *workflow.Workflow, which callers must not
// modify; to vary the DAG, assign a freshly built one to Workflow.
func BaseScenario() Scenario {
	return Scenario{Workflow: montage738()}
}

// Tab1Base returns the Tab 1 template: cluster only; node count and
// p-state are chosen per experiment via ClusterConfig.
func Tab1Base() (Scenario, []platform.PState) {
	return BaseScenario(), platform.DefaultPStates()
}

// Tab2Scenario returns the Tab 2 platform: 12 local nodes locked at
// the lowest p-state plus 16 green-cloud VMs across the shared link.
func Tab2Scenario() Scenario {
	sc := BaseScenario()
	ps := platform.DefaultPStates()
	sc.LocalNodes = Tab2LocalNodes
	sc.PState = ps[0]
	sc.CloudVMs = Tab2CloudVMs
	sc.VMSpeed = Tab2VMSpeed
	sc.VMBusyPower = Tab2VMBusyPower
	sc.VMIdlePower = Tab2VMIdlePower
	sc.LinkBandwidth = Tab2LinkBandwidth
	sc.LinkLatency = Tab2LinkLatency
	return sc
}

// Tab2Choices returns the per-level fraction choices used by the
// exhaustive optimizer: quartiles for the three wide levels
// (mProject, mDiffFit, mBackground), all-or-nothing for the single-
// task levels.
func Tab2Choices(w *workflow.Workflow) [][]float64 {
	choices := make([][]float64, len(w.Levels))
	for l, level := range w.Levels {
		if len(level) > 1 {
			choices[l] = []float64{0, 0.25, 0.5, 0.75, 1}
		} else {
			choices[l] = []float64{0, 1}
		}
	}
	return choices
}
