package hetero

// options.go is the functional-options front of the package: New
// composes a Runner from With* options, the package's only entry
// point.

import (
	"context"
	"time"

	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Option configures a hybrid run built by New.
type Option func(*Params)

// WithTile sets the tile dimensions (default 32x32).
func WithTile(h, w int) Option {
	return func(p *Params) { p.TileH, p.TileW = h, w }
}

// WithCPUWorkers sets the host-side worker-team size (default
// GOMAXPROCS).
func WithCPUWorkers(n int) Option {
	return func(p *Params) { p.CPUWorkers = n }
}

// WithDevice attaches a simulated accelerator with the given internal
// parallelism and per-launch overhead. Without this option the run is
// CPU-only.
func WithDevice(workers int, launchOverhead time.Duration) Option {
	return func(p *Params) {
		p.Device = DeviceProfile{Workers: workers, LaunchOverhead: launchOverhead}
	}
}

// WithInitialFraction sets the starting device share of active tiles.
func WithInitialFraction(f float64) Option {
	return func(p *Params) { p.InitialFraction = f }
}

// WithFixedSplit disables the throughput-proportional controller
// (New enables it by default — the adaptive split is the point of the
// assignment).
func WithFixedSplit() Option {
	return func(p *Params) { p.Adapt = false }
}

// WithMaxIters bounds the iteration count.
func WithMaxIters(n int) Option {
	return func(p *Params) { p.MaxIters = n }
}

// WithRecorder attaches a per-tile trace recorder.
func WithRecorder(r *trace.Recorder) Option {
	return func(p *Params) { p.Recorder = r }
}

// WithObs attaches the observability layer.
func WithObs(sink obs.Sink) Option {
	return func(p *Params) { p.Obs = sink }
}

// WithFaults arms deterministic fault injection (see Params.Faults).
func WithFaults(plan *fault.Plan) Option {
	return func(p *Params) { p.Faults = plan }
}

// Runner is a configured hybrid run, built by New.
type Runner struct {
	g *grid.Grid
	p Params
}

// New configures a hybrid run over g. Unlike the zero Params, New
// defaults the controller to adaptive; use WithFixedSplit to pin the
// split.
func New(g *grid.Grid, opts ...Option) *Runner {
	p := Params{Adapt: true}
	for _, o := range opts {
		o(&p)
	}
	return &Runner{g: g, p: p}
}

// Run stabilizes the runner's grid and returns the report.
func (r *Runner) Run() Report { return run(r.g, r.p) }

// RunContext is Run with cancellation.
func (r *Runner) RunContext(ctx context.Context) (Report, error) {
	return runContext(ctx, r.g, r.p)
}
