package runners

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/obs"
	"repro/internal/wfsched"
)

// TestWfsimRejectsUnrunnableFaultPlans: plans the simulator cannot run
// to an end fail validation — non-finite values, and certain host
// failure with nothing capping the retries.
func TestWfsimRejectsUnrunnableFaultPlans(t *testing.T) {
	for _, faults := range []string{
		"hostfail=0.5,repair=NaN",
		"hostfail=0.5,retrymax=Inf",
		"seed=1,hostfail=1",
	} {
		err := (&Wfsim{}).Validate(spec("wfsim", fmt.Sprintf(`{"faults":%q}`, faults)))
		if !errors.Is(err, job.ErrBadSpec) {
			t.Errorf("faults %q: Validate = %v, want ErrBadSpec", faults, err)
		}
	}
	if err := (&Wfsim{}).Validate(spec("wfsim", `{"faults":"seed=1,hostfail=1,attempts=3"}`)); err != nil {
		t.Errorf("capped certain failure: Validate = %v, want nil", err)
	}
}

// TestWfsimAttemptsExhaustedFailsJob: a validated fault plan whose
// host failures use up a task's attempts fails the job in every wfsim
// mode, on either kernel, instead of panicking the process; through
// the manager the job ends in the failed state.
func TestWfsimAttemptsExhaustedFailsJob(t *testing.T) {
	const faults = `"faults":"seed=1,hostfail=0.9,attempts=1"`
	var w Wfsim
	for _, mode := range []string{"tab1", "tab2", "optimize", "pareto", "greedy"} {
		for _, workers := range []int{0, 2} {
			params := fmt.Sprintf(`{"mode":%q,"nodes":8,%s,"desWorkers":%d}`, mode, faults, workers)
			s := spec("wfsim", params)
			if err := w.Validate(s); err != nil {
				t.Fatalf("%s: Validate = %v", params, err)
			}
			if _, err := w.Run(context.Background(), s, obs.NewProgress(nil)); !errors.Is(err, wfsched.ErrAttemptsExhausted) {
				t.Fatalf("%s: Run = %v, want ErrAttemptsExhausted", params, err)
			}
		}
	}

	m, err := job.NewManager(append(Register(), job.WithExecutors(1))...)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	m.Start(ctx)
	v, err := m.Submit(spec("wfsim", `{"mode":"tab1","nodes":8,`+faults+`}`))
	if err != nil {
		t.Fatal(err)
	}
	actx, acancel := context.WithTimeout(ctx, 60*time.Second)
	defer acancel()
	done, err := m.Await(actx, v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != job.StateFailed || !strings.Contains(done.Error, "attempts exhausted") {
		t.Fatalf("job %s: %s (%q), want failed with attempts exhausted", v.ID, done.State, done.Error)
	}
}

// svc-mixed's two wfsim job classes (bench/svc.go).
var wfsimJobs = []struct{ name, params string }{
	{"tab1", `{"mode":"tab1","nodes":48}`},
	{"tab2", `{"mode":"tab2"}`},
}

// BenchmarkWfsimJob prices one wfsim job as the job server runs it:
// Validate at submission, then Run.
func BenchmarkWfsimJob(b *testing.B) {
	for _, bc := range wfsimJobs {
		b.Run(bc.name, func(b *testing.B) {
			s := spec("wfsim", bc.params)
			var w Wfsim
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := w.Validate(s); err != nil {
					b.Fatal(err)
				}
				if _, err := w.Run(context.Background(), s, obs.NewProgress(nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestWfsimValidateAllocs: validating a tab1 spec decodes JSON and
// checks ranges; it must not build the Montage workflow (about 9,000
// allocations) or any scenario to do so.
func TestWfsimValidateAllocs(t *testing.T) {
	s := spec("wfsim", wfsimJobs[0].params)
	var w Wfsim
	var err error
	allocs := testing.AllocsPerRun(100, func() { err = w.Validate(s) })
	if err != nil {
		t.Fatal(err)
	}
	if allocs > 50 {
		t.Fatalf("tab1 Validate makes %.0f allocations, want at most 50", allocs)
	}
}
