package carbon

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestJoulesToKWh(t *testing.T) {
	if !almost(JoulesToKWh(3.6e6), 1) {
		t.Fatalf("3.6MJ = %v kWh, want 1", JoulesToKWh(3.6e6))
	}
	if !almost(JoulesToKWh(0), 0) {
		t.Fatal("0 J != 0 kWh")
	}
}

func TestEmissionsMatchesPaperPlant(t *testing.T) {
	// 1 kWh at the paper's 291 gCO2e/kWh plant.
	if got := Emissions(3.6e6, LocalGrid); !almost(got, 291) {
		t.Fatalf("1 kWh local = %v g, want 291", got)
	}
	if got := Emissions(3.6e6, GreenCloud); !almost(got, 5) {
		t.Fatalf("1 kWh cloud = %v g, want 5", got)
	}
	if Emissions(3.6e6, GreenCloud) >= Emissions(3.6e6, LocalGrid)/10 {
		t.Fatal("green cloud should be far cleaner than the local grid")
	}
}

// quick-check: emissions are additive and linear in energy.
func TestQuickEmissionsLinear(t *testing.T) {
	f := func(aRaw, bRaw uint32) bool {
		a, b := float64(aRaw), float64(bRaw)
		sum := Emissions(a+b, LocalGrid)
		parts := Emissions(a, LocalGrid) + Emissions(b, LocalGrid)
		return math.Abs(sum-parts) < 1e-6*(1+sum)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
