package runners

import (
	"context"
	"fmt"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/job"
	"repro/internal/obs"
)

// PeachyParams is the "peachy" kind's parameter schema: run a set of
// the reproduction's experiments (every figure and table of the
// paper) and return their rendered reports.
type PeachyParams struct {
	// Experiments lists experiment IDs (E1, E5, ...); empty runs all.
	Experiments []string `json:"experiments,omitempty"`
	// Quick shrinks workloads to CI size.
	Quick bool `json:"quick,omitempty"`
	// Faults overrides the fault plans of fault-aware experiments.
	Faults string `json:"faults,omitempty"`
}

// ExperimentOutput is one experiment's slot in the output, in
// submission order.
type ExperimentOutput struct {
	ID       string `json:"id"`
	Artifact string `json:"artifact"`
	Title    string `json:"title"`
	// Report is the rendered text result (tables and notes).
	Report string `json:"report,omitempty"`
	// Artifacts names the image/SVG files the experiment produced;
	// the bytes themselves only materialize under the CLI, which
	// saves them through the OnResult hook.
	Artifacts []string `json:"artifacts,omitempty"`
	// Skipped marks experiments a resumed run found already done.
	Skipped bool `json:"skipped,omitempty"`
	// Error records a failed experiment; the set keeps going.
	Error string `json:"error,omitempty"`
}

// PeachyOutput is the "peachy" kind's result schema.
type PeachyOutput struct {
	Experiments []ExperimentOutput `json:"experiments"`
	Completed   int                `json:"completed"`
	Skipped     int                `json:"skipped,omitempty"`
	Failed      int                `json:"failed,omitempty"`
}

// Peachy adapts the experiment registry (internal/core) to
// job.Runner. The hook fields are CLI-only: live per-experiment
// reporting and artifact saving. Under the job server they stay nil
// and the result document carries the rendered reports.
type Peachy struct {
	// OnStart fires before an experiment runs.
	OnStart func(e core.Experiment)
	// OnSkip fires for experiments a resumed run skips.
	OnSkip func(e core.Experiment)
	// OnResult receives each successful experiment's full result —
	// including the image/SVG artifacts the JSON output reduces to
	// names — before the adapter moves on.
	OnResult func(e core.Experiment, r *core.Result)
}

func (a *Peachy) decode(spec job.Spec) (PeachyParams, error) {
	var p PeachyParams
	if err := decodeParams(spec, &p); err != nil {
		return p, err
	}
	for _, id := range p.Experiments {
		if _, err := core.Lookup(id); err != nil {
			return p, job.Badf("%v", err)
		}
	}
	if p.Faults != "" {
		if _, err := fault.Parse(p.Faults); err != nil {
			return p, job.Badf("%v", err)
		}
	}
	return p, nil
}

func (a *Peachy) Validate(spec job.Spec) error {
	_, err := a.decode(spec)
	return err
}

// The done-set snapshot: which experiment IDs already completed, so a
// resumed run (CLI -resume, or a job the server restarts) skips them.
const peachyPayload uint32 = 5

func encodeDone(done []string) []byte {
	var e ckpt.Enc
	e.U32(peachyPayload)
	e.U64(uint64(len(done)))
	for _, id := range done {
		e.Str(id)
	}
	return e.Bytes()
}

// decodeDone decodes a done-set snapshot of the given epoch, which is
// its experiment count. Every failure wraps ckpt.ErrCorrupt. The count
// is checked against the epoch and against the bytes left, at least 4
// per ID, before the IDs are sized from it.
func decodeDone(payload []byte, epoch uint64) ([]string, error) {
	dec := ckpt.NewDec(payload)
	tag, n := dec.U32(), dec.U64()
	left := uint64(len(dec.Rest()))
	switch {
	case dec.Err() != nil:
		return nil, fmt.Errorf("%w: done-set snapshot of %d bytes has no header", ckpt.ErrCorrupt, len(payload))
	case tag != peachyPayload:
		return nil, fmt.Errorf("%w: snapshot has payload tag %d, want %d", ckpt.ErrCorrupt, tag, peachyPayload)
	case n != epoch:
		return nil, fmt.Errorf("%w: snapshot epoch %d holds %d experiments", ckpt.ErrCorrupt, epoch, n)
	case n > left/4:
		return nil, fmt.Errorf("%w: %d experiments in %d bytes", ckpt.ErrCorrupt, n, left)
	}
	ids := make([]string, 0, n)
	for i := uint64(0); i < n && dec.Err() == nil; i++ {
		ids = append(ids, dec.Str())
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("%w: done-set snapshot cut off in its IDs", err)
	}
	if rest := len(dec.Rest()); rest > 0 {
		return nil, fmt.Errorf("%w: %d bytes after the done-set snapshot's IDs", ckpt.ErrCorrupt, rest)
	}
	return ids, nil
}

func (a *Peachy) Run(ctx context.Context, spec job.Spec, prog *obs.Progress) (job.Result, error) {
	p, err := a.decode(spec)
	if err != nil {
		return job.Result{}, err
	}
	env := job.EnvFrom(ctx)
	ids := p.Experiments
	if len(ids) == 0 {
		for _, e := range core.All() {
			ids = append(ids, e.ID)
		}
	}

	var done []string
	completed := map[string]bool{}
	if env.Ckpt != nil {
		if epoch, payload, ok, err := env.Ckpt.Load(); err != nil {
			return job.Result{}, err
		} else if ok {
			if done, err = decodeDone(payload, epoch); err != nil {
				return job.Result{}, err
			}
			for _, id := range done {
				completed[id] = true
			}
		}
	}

	cfg := core.Config{Quick: p.Quick, Obs: env.Obs}
	if p.Faults != "" {
		cfg.Faults, _ = fault.Parse(p.Faults)
	}

	out := PeachyOutput{Experiments: make([]ExperimentOutput, 0, len(ids))}
	prog.Update("peachy", obs.F("experiments", float64(len(ids))))
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return job.Result{}, err
		}
		e, _ := core.Lookup(id)
		slot := ExperimentOutput{ID: e.ID, Artifact: e.Artifact, Title: e.Title}
		if completed[e.ID] {
			slot.Skipped = true
			out.Skipped++
			out.Experiments = append(out.Experiments, slot)
			if a.OnSkip != nil {
				a.OnSkip(e)
			}
			continue
		}
		if a.OnStart != nil {
			a.OnStart(e)
		}
		res, err := e.Run(cfg)
		if err != nil {
			slot.Error = err.Error()
			out.Failed++
			out.Experiments = append(out.Experiments, slot)
			continue
		}
		slot.Report = res.Render()
		for name := range res.Images {
			slot.Artifacts = append(slot.Artifacts, name)
		}
		for name := range res.SVGs {
			slot.Artifacts = append(slot.Artifacts, name)
		}
		sort.Strings(slot.Artifacts)
		out.Completed++
		out.Experiments = append(out.Experiments, slot)
		if a.OnResult != nil {
			a.OnResult(e, res)
		}
		prog.Update("peachy", obs.F("done", float64(out.Completed+out.Skipped)))
		if env.Ckpt != nil {
			done = append(done, e.ID)
			if err := env.Ckpt.Save(uint64(len(done)), encodeDone(done)); err != nil {
				return job.Result{}, err
			}
		}
	}
	return marshalOutput("peachy", out)
}

var _ job.Runner = (*Peachy)(nil)
