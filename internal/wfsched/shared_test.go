package wfsched_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/job"
	"repro/internal/job/runners"
	"repro/internal/obs"
	"repro/internal/wfsched"
	"repro/internal/workflow"
)

// workflowDigest hashes everything a simulation reads of a workflow:
// task IDs, kinds, levels and Gflop, the file and task edges, the
// file sizes and producers, and the level lists.
func workflowDigest(w *workflow.Workflow) string {
	h := sha256.New()
	put := func(format string, args ...any) { fmt.Fprintf(h, format, args...) }
	put("%s tasks=%d files=%d\n", w.Name, len(w.Tasks), len(w.Files))
	for _, t := range w.Tasks {
		put("task %s %s L%d %x", t.ID, t.Kind, t.Level, math.Float64bits(t.Gflop))
		for _, f := range t.Inputs {
			put(" in=%s", f.Name)
		}
		for _, f := range t.Outputs {
			put(" out=%s", f.Name)
		}
		for _, p := range t.Parents {
			put(" parent=%s", p.ID)
		}
		for _, c := range t.Children {
			put(" child=%s", c.ID)
		}
		put("\n")
	}
	for _, f := range w.Files {
		producer := "<input>"
		if f.Producer != nil {
			producer = f.Producer.ID
		}
		put("file %s %x %s\n", f.Name, math.Float64bits(f.Bytes), producer)
	}
	for l, level := range w.Levels {
		put("level %d", l)
		for _, t := range level {
			put(" %s", t.ID)
		}
		put("\n")
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sweepTail is how many placements the optimize and pareto jobs below
// simulate: their checkpoints hold every other placement already.
const sweepTail = 16

// seededCheckpointer returns a resuming checkpointer whose snapshot
// covers all but the last sweepTail placements of the Tab 2 sweep.
// The restored outcomes are worse than any real one on both
// objectives, so the optimum and the frontier come from the tail the
// job simulates.
func seededCheckpointer(t *testing.T, w *workflow.Workflow) *ckpt.Checkpointer {
	t.Helper()
	total := 1
	for _, c := range wfsched.Tab2Choices(w) {
		total *= len(c)
	}
	done := total - sweepTail
	prefix := make([]wfsched.FractionResult, done)
	for i := range prefix {
		prefix[i].Outcome = wfsched.Outcome{Makespan: math.MaxFloat64, CO2: math.MaxFloat64}
	}
	store, err := ckpt.Open(t.TempDir(), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(uint64(done), wfsched.EncodeSweep(total, prefix)); err != nil {
		t.Fatal(err)
	}
	return ckpt.NewCheckpointer(store, sweepTail, true)
}

// TestSharedWorkflowReadOnly: every wfsim mode, on the sequential
// kernel and on Time Warp, runs concurrently against the one shared
// Montage-738 workflow. The workflow must come out bit-for-bit as it
// went in (and, under -race, with no write racing a read), and each
// mode's result must not depend on the kernel.
func TestSharedWorkflowReadOnly(t *testing.T) {
	w := wfsched.BaseScenario().Workflow
	tab1, _ := wfsched.Tab1Base()
	if tab1.Workflow != w || wfsched.Tab2Scenario().Workflow != w || wfsched.BaseScenario().Workflow != w {
		t.Fatal("BaseScenario, Tab1Base and Tab2Scenario do not share one workflow")
	}
	before := workflowDigest(w)

	modes := []struct {
		params string
		sweep  bool // resumes from a seeded checkpoint
	}{
		{`"mode":"tab1","nodes":40,"pstate":3`, false},
		{`"mode":"tab2","fractions":[0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5,0.5]`, false},
		{`"mode":"greedy"`, false},
		{`"mode":"optimize"`, true},
		{`"mode":"pareto"`, true},
	}
	workers := []int{0, 2}
	out := make([][]json.RawMessage, len(modes))
	var wg sync.WaitGroup
	for m, mode := range modes {
		out[m] = make([]json.RawMessage, len(workers))
		for k, n := range workers {
			s := job.Spec{Kind: "wfsim", Tenant: "test", CheckpointEvery: sweepTail,
				Params: json.RawMessage(fmt.Sprintf(`{%s,"desWorkers":%d}`, mode.params, n))}
			ctx := context.Background()
			if mode.sweep {
				ctx = job.WithEnv(ctx, job.Env{Ckpt: seededCheckpointer(t, w)})
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := &runners.Wfsim{}
				if err := r.Validate(s); err != nil {
					t.Errorf("%s: Validate = %v", s.Params, err)
					return
				}
				res, err := r.Run(ctx, s, obs.NewProgress(nil))
				if err != nil {
					t.Errorf("%s: Run = %v", s.Params, err)
					return
				}
				out[m][k] = res.Output
			}()
		}
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	for m, mode := range modes {
		if string(out[m][0]) != string(out[m][1]) {
			t.Errorf("{%s}: sequential and Time Warp results differ:\n seq: %s\n  tw: %s", mode.params, out[m][0], out[m][1])
		}
	}
	if after := workflowDigest(w); after != before {
		t.Fatalf("shared workflow changed under the jobs: digest %s, was %s", after, before)
	}
}
