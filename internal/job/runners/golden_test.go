package runners

import (
	"context"
	"flag"
	"fmt"
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
	checkGolden(t, "sandpile_ranks.golden", sb.String())
}

// TestWfsimGolden pins the wfsim result bytes of each simulating mode
// — a Tab 1 cluster, a Tab 2 placement with and without host
// failures, and the greedy optimizer — on the sequential kernel and
// on Time Warp, one spec per line followed by its result.
func TestWfsimGolden(t *testing.T) {
	const half = `"fractions":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]`
	specs := []string{
		`{"mode":"tab1","nodes":48,"pstate":4`,
		`{"mode":"tab2",` + half,
		`{"mode":"tab2",` + half + `,"faults":"seed=11,hostfail=0.1,repair=6,retrybase=2"`,
		`{"mode":"greedy"`,
	}
	var sb strings.Builder
	for _, workers := range []int{0, 2} {
		for _, s := range specs {
			params := fmt.Sprintf(`%s,"desWorkers":%d}`, s, workers)
			res, err := (&Wfsim{}).Run(context.Background(), spec("wfsim", params), obs.NewProgress(nil))
			if err != nil {
				t.Fatalf("%s: %v", params, err)
			}
			sb.WriteString(params + "\n" + string(res.Output) + "\n")
		}
	}
	checkGolden(t, "wfsim.golden", sb.String())
}

// TestMapReduceGolden pins the mapreduce result bytes of the word
// count, clean and under a task-failure plan whose retries are part of
// the output.
func TestMapReduceGolden(t *testing.T) {
	specs := []string{
		`{"docs":400,"mapTasks":12,"reduceTasks":3}`,
		`{"docs":400,"mapTasks":12,"reduceTasks":3,"faults":"seed=5,taskfail=0.3,attempts=10"}`,
	}
	var sb strings.Builder
	for _, params := range specs {
		res, err := (&MapReduce{}).Run(context.Background(), spec("mapreduce", params), obs.NewProgress(nil))
		if err != nil {
			t.Fatalf("%s: %v", params, err)
		}
		sb.WriteString(params + "\n" + string(res.Output) + "\n")
	}
	checkGolden(t, "mapreduce.golden", sb.String())
}

// checkGolden compares got with testdata/name, rewriting the file
// first under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
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
		t.Errorf("%s drifted from golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}
