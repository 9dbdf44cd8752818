package runners

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestSandpileRanksGolden pins the ranks-mode (ghost-cell) sandpile
// result bytes, one line per spec: the service's ghost job, a wider
// ghost zone, and a crashed-and-recovered run whose fault schedule is
// part of the output.
func TestSandpileRanksGolden(t *testing.T) {
	specs := []string{
		`{"size":96,"config":"center","grains":20000,"ranks":2,"ghostWidth":2}`,
		`{"size":64,"grains":20000,"ranks":4,"ghostWidth":3}`,
		`{"size":48,"config":"center","grains":9000,"ranks":3,"ghostWidth":2,"faults":"seed=9,crash=1@2"}`,
	}
	var sb strings.Builder
	for _, params := range specs {
		res, err := (&Sandpile{}).Run(context.Background(), spec("sandpile", params), obs.NewProgress(nil))
		if err != nil {
			t.Fatalf("%s: %v", params, err)
		}
		sb.WriteString(params + "\n" + string(res.Output) + "\n")
	}
	got := sb.String()
	path := filepath.Join("testdata", "sandpile_ranks.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("ranks-mode results drifted from golden:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
