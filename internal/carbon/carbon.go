// Package carbon provides the energy and CO2-equivalent accounting
// used by the workflow assignment: joules integrate into kWh, kWh
// multiply by a source's carbon intensity (gCO2e/kWh) into emissions.
// The local cluster of the assignment is powered at 291 gCO2e/kWh;
// the remote cloud is green.
package carbon

// Intensity is a power source's carbon intensity in gCO2e per kWh.
type Intensity float64

// The assignment's power sources.
const (
	// LocalGrid is the paper's non-green power plant: 291 gCO2e/kWh.
	LocalGrid Intensity = 291
	// GreenCloud approximates the remote cloud's green source; a
	// small non-zero floor accounts for embodied/transmission
	// emissions so "all cloud" is cheap but not magically free.
	GreenCloud Intensity = 5
)

// JoulesToKWh converts energy in joules to kilowatt-hours.
func JoulesToKWh(j float64) float64 { return j / 3.6e6 }

// Emissions returns gCO2e for the given energy at the given intensity.
func Emissions(joules float64, i Intensity) float64 {
	return JoulesToKWh(joules) * float64(i)
}
