package ghost

// options.go is the constructor for distributed runs: a
// functional-options Runner over the block decomposition (strips are
// its one-column case) that threads context.Context through and
// carries the fault-injection plan, durability, and fleet settings.

import (
	"context"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// config is the merged configuration both runtimes run from.
type config struct {
	procRows, procCols int // process grid; WithRanks(n) is n×1
	width              int
	maxIters           int
	obs                obs.Sink
	faults             *fault.Plan
	heartbeat          time.Duration
	ck                 *ckpt.Checkpointer
	fleet              *pnet.FleetConfig
}

// Option configures a Runner built with New.
type Option func(*config)

// WithRanks selects the strip decomposition with n simulated ranks:
// the n×1 process grid of WithProcessGrid.
func WithRanks(n int) Option { return WithProcessGrid(n, 1) }

// WithProcessGrid selects the 2-D block decomposition with a
// rows x cols process grid. The last of WithRanks/WithProcessGrid
// wins.
func WithProcessGrid(rows, cols int) Option {
	return func(c *config) { c.procRows, c.procCols = rows, cols }
}

// WithWidth sets the ghost-zone width K: halo rows/columns exchanged
// per boundary and iterations between exchanges.
func WithWidth(k int) Option { return func(c *config) { c.width = k } }

// WithMaxIters bounds runaway runs (0 means sandpile.MaxIterations).
func WithMaxIters(n int) Option { return func(c *config) { c.maxIters = n } }

// WithObs attaches the observability layer.
func WithObs(sink obs.Sink) Option { return func(c *config) { c.obs = sink } }

// WithFaults enables deterministic fault injection under the plan:
// rank crashes and halo-message drop/delay/duplication, recovered via
// heartbeat detection and coordinated checkpoint rollback. nil
// disables injection (and checkpointing).
func WithFaults(p *fault.Plan) Option { return func(c *config) { c.faults = p } }

// WithHeartbeat sets how long the coordinator waits for a round's
// reports before declaring a rank dead (default 2s; only meaningful
// with WithFaults). Halo receives time out at a quarter of this.
func WithHeartbeat(d time.Duration) Option { return func(c *config) { c.heartbeat = d } }

// WithFleet runs the decomposition over a worker fleet (see fleet.go):
// the ranks become processes (or goroutines, on the chan transport)
// joined through fc.Transport, supervised with heartbeat leases and
// respawn. fc.Workers and fc.Proto are set by the run; everything else
// — transport, listen address, lease, backoff, Spawn hook — is the
// caller's. Mutually exclusive with WithFaults: fleet crashes are real
// process deaths, not injected ones.
func WithFleet(fc *pnet.FleetConfig) Option { return func(c *config) { c.fleet = fc } }

// WithCheckpoint enables durable checkpoint/restart (see ckpt.go):
// committed rounds are persisted through ck at its cadence, and a
// resuming checkpointer restores the newest valid snapshot before the
// run starts, continuing from the committed round it holds. nil
// disables durability.
func WithCheckpoint(ck *ckpt.Checkpointer) Option { return func(c *config) { c.ck = ck } }

// Runner is a configured distributed run over one grid.
type Runner struct {
	g   *grid.Grid
	cfg config
}

// New builds a distributed run of g, e.g.
//
//	ghost.New(g, ghost.WithRanks(4), ghost.WithWidth(2), ghost.WithFaults(plan))
func New(g *grid.Grid, opts ...Option) *Runner {
	r := &Runner{g: g, cfg: config{width: 1}}
	for _, opt := range opts {
		opt(&r.cfg)
	}
	return r
}

// Run executes the configured run to the fixed point.
func (r *Runner) Run() (Report, error) { return r.RunContext(context.Background()) }

// RunContext is Run with cancellation: the coordinator stops
// launching rounds once ctx is cancelled and returns ctx.Err().
func (r *Runner) RunContext(ctx context.Context) (Report, error) {
	if r.cfg.fleet != nil {
		return runFleet(ctx, r.g, r.cfg)
	}
	return run2d(ctx, r.g, r.cfg)
}
