// Package wfsched simulates the carbon-footprint assignment's
// workflow executions — a DAG on a local cluster and a green cloud
// joined by a shared link, modelled as logical processes on the des
// kernel (warp.go) — and implements the assignment's scheduling and
// placement policies: Tab 1's cluster sizing and p-state selection
// (including the binary searches and the boss heuristic that combines
// powering off with downclocking) and Tab 2's local-vs-cloud task
// placement with per-level cloud fractions, data locality, and the
// exhaustive CO2 optimizer the paper lists as future work.
package wfsched

import (
	"context"
	"fmt"
	"math"

	"repro/internal/carbon"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/workflow"
)

// SiteID distinguishes the two execution sites.
type SiteID int

const (
	// Local is the organization's own cluster (non-green power).
	Local SiteID = iota
	// Cloud is the remote green cloud.
	Cloud
)

func (s SiteID) String() string {
	if s == Local {
		return "local"
	}
	return "cloud"
}

// Scenario describes the platform a workflow runs on.
type Scenario struct {
	Workflow *workflow.Workflow

	// LocalNodes is the number of powered-on cluster nodes (the rest
	// are off and draw nothing).
	LocalNodes int
	// PState is the (uniform) p-state of the powered-on nodes, per
	// the assignment's homogeneity assumption.
	PState platform.PState
	// LocalIntensity is the cluster power source's carbon intensity.
	// Zero means the paper's 291 gCO2e/kWh.
	LocalIntensity carbon.Intensity

	// CloudVMs is the number of cloud VM instances (0 = no cloud).
	CloudVMs int
	// VMSpeed is the per-VM speed in Gflop/s.
	VMSpeed float64
	// VMBusyPower/VMIdlePower model the cloud-side draw (charged at
	// the green intensity).
	VMBusyPower, VMIdlePower float64
	// CloudIntensity is the cloud source's intensity; zero means the
	// green default.
	CloudIntensity carbon.Intensity

	// LinkBandwidth (bytes/s) and LinkLatency (s) describe the
	// cluster<->cloud connection.
	LinkBandwidth, LinkLatency float64

	// Obs attaches the observability layer: per-slot task spans in
	// simulated time on the "site:*" tracks, des.events/platform.tasks
	// counters, and wfsched.* energy/CO2 gauges. The zero Sink
	// disables it.
	Obs obs.Sink

	// Faults enables deterministic host-failure injection: task
	// attempts are killed mid-run per the plan's HostFail rate,
	// realized as DES events; the failed slot repairs for RepairSec
	// while the task retries under the plan's backoff policy. Wasted
	// energy is reported separately in the Outcome. nil disables.
	Faults *fault.Plan

	// DESWorkers picks how the des.Warp kernel executes the model:
	// values > 1 run it as optimistic Time Warp with that many
	// workers, 0 or 1 on the kernel's sequential heap. Outcomes are
	// byte-identical either way. The Placement must be a pure function
	// of the task (every Placement in this package is) — Time Warp
	// may evaluate it on speculative paths.
	DESWorkers int
}

func (sc Scenario) withDefaults() Scenario {
	if sc.LocalIntensity == 0 {
		sc.LocalIntensity = carbon.LocalGrid
	}
	if sc.CloudIntensity == 0 {
		sc.CloudIntensity = carbon.GreenCloud
	}
	return sc
}

// Placement decides, per task, whether it runs on the cloud.
type Placement func(t *workflow.Task) SiteID

// AllLocal places every task on the cluster.
func AllLocal(*workflow.Task) SiteID { return Local }

// AllCloud places every task on the cloud.
func AllCloud(*workflow.Task) SiteID { return Cloud }

// LevelFractions places the first fraction[L] share of each level L's
// tasks (in deterministic ID order) on the cloud — the knob the
// assignment's Tab 2 simulator exposes. Levels beyond the slice run
// locally.
func LevelFractions(w *workflow.Workflow, fractions []float64) Placement {
	cloudSet := make(map[*workflow.Task]bool)
	for li, level := range w.Levels {
		if li >= len(fractions) {
			break
		}
		f := fractions[li]
		if f < 0 {
			f = 0
		}
		if f > 1 {
			f = 1
		}
		n := int(math.Round(f * float64(len(level))))
		for i := 0; i < n; i++ {
			cloudSet[level[i]] = true
		}
	}
	return func(t *workflow.Task) SiteID {
		if cloudSet[t] {
			return Cloud
		}
		return Local
	}
}

// Outcome reports one simulated execution.
type Outcome struct {
	// Makespan is the workflow execution time in seconds.
	Makespan float64
	// EnergyLocalKWh and EnergyCloudKWh are the energy drawn by each
	// site over the makespan (busy + idle).
	EnergyLocalKWh, EnergyCloudKWh float64
	// CO2Local, CO2Cloud, and CO2 are emissions in gCO2e.
	CO2Local, CO2Cloud, CO2 float64
	// TasksLocal and TasksCloud count task placements.
	TasksLocal, TasksCloud int
	// BytesTransferred and Transfers describe link usage.
	BytesTransferred float64
	Transfers        int
	// Retries counts task re-executions caused by injected host
	// failures; EnergyWastedKWh is the energy their killed attempts
	// drew. Wasted energy is part of the Energy*KWh totals (it was
	// really consumed) — this field breaks it out.
	Retries         int
	EnergyWastedKWh float64
}

func (o Outcome) String() string {
	s := fmt.Sprintf("time=%.1fs energy=%.3f+%.3fkWh co2=%.1fg (local %.1f + cloud %.1f) tasks=%d/%d xfer=%.2fGB",
		o.Makespan, o.EnergyLocalKWh, o.EnergyCloudKWh, o.CO2, o.CO2Local, o.CO2Cloud,
		o.TasksLocal, o.TasksCloud, o.BytesTransferred/1e9)
	if o.Retries > 0 {
		s += fmt.Sprintf(" retries=%d wasted=%.4fkWh", o.Retries, o.EnergyWastedKWh)
	}
	return s
}

// Simulate executes the scenario's workflow under the placement and
// returns the outcome. The execution model: a task becomes ready when
// all parents finish; a ready task's missing input files are staged
// to its site over the link (concurrently, fair-shared); it then
// occupies one slot until its compute finishes; outputs materialize
// at its site. Workflow input files start on local storage. Simulate
// panics where SimulateContext returns an error: when host failures
// exhaust a task's attempts (ErrAttemptsExhausted).
func Simulate(sc Scenario, place Placement) Outcome {
	out, err := SimulateContext(context.Background(), sc, place)
	if err != nil {
		panic(err)
	}
	return out
}

// SimulateContext is Simulate with cancellation and fault errors: the
// run stops promptly once ctx is cancelled and returns the (partial,
// unfinalized) outcome alongside ctx.Err(); a task whose attempts run
// out under the fault plan's cap fails the run with an error wrapping
// ErrAttemptsExhausted.
func SimulateContext(ctx context.Context, sc Scenario, place Placement) (Outcome, error) {
	sc = sc.withDefaults()
	if sc.Workflow == nil {
		panic("wfsched: nil workflow")
	}
	if sc.LocalNodes <= 0 && sc.CloudVMs <= 0 {
		panic("wfsched: no compute anywhere")
	}
	var sites [2]*siteModel
	sites[Local] = newSiteModel("local", sc.LocalIntensity,
		slotGroup{sc.LocalNodes, sc.PState.Speed, sc.PState.BusyPower, sc.PState.IdlePower})
	if sc.CloudVMs > 0 {
		if sc.LinkBandwidth <= 0 || sc.LinkLatency < 0 {
			panic(fmt.Sprintf("wfsched: invalid link bw=%v lat=%v", sc.LinkBandwidth, sc.LinkLatency))
		}
		sites[Cloud] = newSiteModel("cloud", sc.CloudIntensity,
			slotGroup{sc.CloudVMs, sc.VMSpeed, sc.VMBusyPower, sc.VMIdlePower})
	}
	return simulate(ctx, sc, place, sites)
}
