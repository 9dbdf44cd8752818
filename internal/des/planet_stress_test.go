package des_test

import (
	"testing"

	"repro/internal/des"
	"repro/internal/wfsched"
)

// The planet scenario joins TestWarpGVTStress: with a flush and a GVT
// pass after every event, fossil collection compacts every cluster's
// undo log between almost every pair of events, on a model whose
// handlers save several slots per event.
func init() {
	des.GVTStressModels = append(des.GVTStressModels, func(t *testing.T, workers int) {
		cfg := wfsched.PlanetConfig{
			Clusters: 4, Hosts: 2, Tasks: 60, Layers: 6, Degree: 2,
			Latency: 0.02, Seed: 0x57E55,
		}
		want := wfsched.SimulatePlanet(cfg)
		for _, window := range []float64{0, 0.05} {
			c := cfg
			c.Workers, c.Window = workers, window
			if got := wfsched.SimulatePlanet(c); got != want {
				t.Fatalf("planet workers=%d window=%v: outcome diverged under gvtEvery=1\n got: %+v\nwant: %+v",
					workers, window, got, want)
			}
		}
	})
}
