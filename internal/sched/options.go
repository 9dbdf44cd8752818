package sched

// options.go holds the functional options New takes: every substrate
// exposes New(...With*) so configuration surfaces grow without
// breaking callers.

import "repro/internal/obs"

// Option configures a Pool built with New.
type Option func(*Options)

// WithWorkers sets the team size (0 means GOMAXPROCS).
func WithWorkers(n int) Option { return func(o *Options) { o.Workers = n } }

// WithPolicy sets the loop schedule (default Static).
func WithPolicy(p Policy) Option { return func(o *Options) { o.Policy = p } }

// WithChunkSize sets the chunk granularity for Cyclic/Dynamic and the
// minimum chunk for Guided (0 means 1).
func WithChunkSize(n int) Option { return func(o *Options) { o.ChunkSize = n } }

// WithObs attaches the observability layer.
func WithObs(sink obs.Sink) Option { return func(o *Options) { o.Obs = sink } }
