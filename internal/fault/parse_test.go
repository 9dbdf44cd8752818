package fault

import (
	"math"
	"strings"
	"testing"
)

// TestParseRejectsNonFinite: NaN and ±Inf are bad values of every
// float key, reported as that key's error.
func TestParseRejectsNonFinite(t *testing.T) {
	for spec, wantErr := range map[string]string{
		"hostfail=0.5,repair=NaN": `bad repair "NaN"`,
		"crashp=nan":              `bad crashp "nan"`,
		"hostfail=Inf":            `bad hostfail "Inf"`,
		"retrymax=-inf":           `bad retrymax "-inf"`,
		"retryfactor=+Inf":        `bad retryfactor "+Inf"`,
	} {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), wantErr) {
			t.Errorf("Parse(%q) = %v, want an error containing %q", spec, err, wantErr)
		}
	}
}

// FuzzFaultParse: Parse never panics, and every plan it accepts has
// finite float fields, probabilities in [0,1], and no negative
// durations, counts or rates.
func FuzzFaultParse(f *testing.F) {
	for _, spec := range []string{
		"seed=7,crash=1@2+3@4,drop=0.05,delay=2ms,hostfail=0.1,stall=50",
		"hostfail=0.5,repair=NaN",
		"crashp=1,crashwindow=1",
		"retrybase=2,retryfactor=3,retrymax=30,attempts=4",
		"taskfail=0.3,attempts=10",
	} {
		f.Add(spec)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := Parse(spec)
		if err != nil {
			return
		}
		probs := map[string]float64{
			"crashp": p.CrashProb, "drop": p.Drop, "dup": p.Dup, "delayp": p.DelayProb,
			"hostfail": p.HostFail, "taskfail": p.TaskFail,
		}
		for k, v := range probs {
			if !(v >= 0 && v <= 1) {
				t.Fatalf("Parse(%q): %s = %v outside [0,1]", spec, k, v)
			}
		}
		floats := map[string]float64{
			"repair": p.RepairSec, "retrybase": p.Retry.BaseSec,
			"retryfactor": p.Retry.Factor, "retrymax": p.Retry.MaxSec,
		}
		for k, v := range floats {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("Parse(%q): %s = %v not finite and non-negative", spec, k, v)
			}
		}
		if p.Delay < 0 || p.Retry.MaxAttempts < 0 || p.StallIter < 0 || p.CrashWindow < 0 {
			t.Fatalf("Parse(%q): negative count or duration in %+v", spec, p)
		}
		for _, c := range p.Crashes {
			if c.Rank < 0 || c.Round < 1 {
				t.Fatalf("Parse(%q): bad crash %+v", spec, c)
			}
		}
	})
}
