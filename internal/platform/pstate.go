// Package platform describes the hardware of the workflow assignment:
// the seven p-states (each a speed/power trade-off) a local cluster
// node can run at. The workflow simulator (internal/wfsched) models
// the cluster, the cloud and the link between them on the DES kernel,
// charging each node's busy and idle draw; carbon.Emissions turns the
// joules into gCO2e.
package platform

import "fmt"

// PState is one node performance state: a clock frequency with the
// compute speed and electrical power it implies.
type PState struct {
	// Freq is the core clock in GHz.
	Freq float64
	// Speed is the per-node compute speed in Gflop/s at this state.
	Speed float64
	// BusyPower is node power draw (W) while computing.
	BusyPower float64
	// IdlePower is node power draw (W) while powered on but idle.
	IdlePower float64
}

func (p PState) String() string {
	return fmt.Sprintf("%.1fGHz %.1fGf/s busy=%.0fW idle=%.0fW", p.Freq, p.Speed, p.BusyPower, p.IdlePower)
}

// DefaultPStates returns the assignment's seven p-states, lowest
// (p0) to highest (p6). Speed scales linearly with frequency; dynamic
// power scales cubically (the classic P = C·V²·f ≈ k·f³ model), on
// top of a constant idle draw — which is what makes "power off some
// nodes" and "downclock all nodes" genuinely different strategies:
// downclocking saves dynamic energy per unit work, powering off saves
// the idle draw.
func DefaultPStates() []PState {
	const (
		idle        = 80.0   // W
		dynAtTop    = 120.0  // W of dynamic power at fTop
		fTop        = 2.2    // GHz
		speedPerGHz = 4.5455 // Gflop/s per GHz -> 10 Gf/s at 2.2 GHz
	)
	k := dynAtTop / (fTop * fTop * fTop)
	freqs := []float64{1.0, 1.2, 1.4, 1.6, 1.8, 2.0, 2.2}
	out := make([]PState, len(freqs))
	for i, f := range freqs {
		out[i] = PState{
			Freq:      f,
			Speed:     speedPerGHz * f,
			BusyPower: idle + k*f*f*f,
			IdlePower: idle,
		}
	}
	return out
}
