package wfsched

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// FuzzWarpWorkflow is the workflow simulator's cross-kernel oracle
// with the scenario chosen by the fuzzer: a small Montage, Tab 2's
// per-level cloud fractions, the link bandwidth and a host-failure
// plan with an attempts cap. Time Warp at two workers must match the
// sequential kernel on the Outcome, on the fired-fault schedule (in
// the order the faults fired) and on the error, ErrAttemptsExhausted
// when the cap runs out. Rollback here unwinds the controller's flow
// compaction and waiter lists and the sites' free stacks, queues and
// logs.
func FuzzWarpWorkflow(f *testing.F) {
	f.Fuzz(func(t *testing.T, projections uint8, fractions uint32, bandwidth uint8, faultSeed uint16, hostfail, attempts uint8) {
		sc := Tab2Scenario()
		sc.Workflow = workflow.Montage(workflow.MontageParams{Projections: 2 + int(projections%14)})
		sc.LinkBandwidth *= 0.25 + float64(bandwidth%16)/4
		fr := make([]float64, len(sc.Workflow.Levels))
		for l := range fr {
			fr[l] = float64(fractions>>(3*l)%5) / 4
		}
		place := LevelFractions(sc.Workflow, fr)
		sc.Faults = &fault.Plan{
			Seed:      int64(faultSeed),
			HostFail:  float64(hostfail%32) / 64,
			RepairSec: 1 + float64(hostfail>>5),
			Retry:     fault.RetryPolicy{MaxAttempts: int(attempts % 5)},
		}

		run := func(workers int) (Outcome, []string, string) {
			var events bytes.Buffer
			sc := sc
			sc.DESWorkers = workers
			sc.Obs = obs.Sink{
				Tracer: obs.NewTracer(nil), // sites then log trace spans too
				Log:    obs.NewLogger(obs.WithLogWriter(&events)),
			}
			out, err := SimulateContext(context.Background(), sc, place)
			var fired []string
			for dec := json.NewDecoder(&events); ; {
				var e obs.Event
				if dec.Decode(&e) != nil {
					break
				}
				fired = append(fired, e.Msg)
			}
			return out, fired, fmt.Sprint(err)
		}
		want, wantFired, wantErr := run(1)
		got, gotFired, gotErr := run(2)
		if got != want {
			t.Fatalf("outcome diverged\n got: %+v\nwant: %+v", got, want)
		}
		if fmt.Sprint(gotFired) != fmt.Sprint(wantFired) {
			t.Fatalf("fault schedule diverged\n got: %q\nwant: %q", gotFired, wantFired)
		}
		if gotErr != wantErr {
			t.Fatalf("error diverged: got %s, want %s", gotErr, wantErr)
		}
	})
}
