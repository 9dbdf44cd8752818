package sched

// context.go threads context.Context through the pool's entry points.
// Cancellation rides the same abort flag a body panic uses: a watcher
// goroutine trips it when ctx fires, the policy loops drain at the
// next chunk boundary, and RunContext returns ctx.Err(). Completed
// chunks are never rolled back — cancellation is a best-effort early
// exit, matching the fault layer's "stop wasting work" semantics.

import "context"

// RunContext executes body over [0, n) according to the pool's policy
// and blocks until all iterations complete (an implicit barrier, like
// the end of an OpenMP parallel-for). body receives the worker id and
// a half-open index range [lo, hi). Once ctx is cancelled no new
// chunks are claimed and RunContext returns ctx.Err(); chunks already
// executing run to completion (bodies are not interrupted mid-chunk).
// A body panic is re-raised in the caller after every worker has
// joined, and closes the pool. RunContext panics on a closed pool.
func (p *Pool) RunContext(ctx context.Context, n int, body func(worker, lo, hi int)) error {
	if n <= 0 {
		return ctx.Err()
	}
	if ctx.Done() == nil {
		// Background-style contexts can never fire: skip the watcher
		// goroutine entirely so hot loops pay nothing for the context
		// plumbing.
		p.run(n, body)
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	stopWatch := make(chan struct{})
	watcherDone := make(chan struct{})
	go func() {
		defer close(watcherDone)
		select {
		case <-ctx.Done():
			p.abort()
		case <-stopWatch:
		}
	}()
	// The watcher must be fully stopped before RunContext returns:
	// a late abort() would clobber the cursor of the caller's next
	// region. run's own prologue resets the abort flag, so a watcher
	// firing in the tiny window before that reset only costs the
	// early exit, never correctness.
	defer func() {
		close(stopWatch)
		<-watcherDone
	}()
	p.run(n, body)
	return ctx.Err()
}

// RunIndexedContext executes body over an arbitrary id worklist under
// the pool's policy: positions [0, len(ids)) are partitioned exactly as
// RunContext partitions them, and body receives the worker id plus the
// ids[lo:hi] sub-slice of each chunk. This is how compacted worklists
// (e.g. the lazy engines' active-tile frontier) are scheduled under
// every policy without copying ids per chunk: beyond what RunContext
// itself does, it allocates nothing. Cancellation and panics follow
// the RunContext contract.
func (p *Pool) RunIndexedContext(ctx context.Context, ids []int32, body func(worker int, ids []int32)) error {
	if len(ids) == 0 {
		return ctx.Err()
	}
	p.ids = ids
	p.idxBody = body
	defer func() {
		p.ids = nil
		p.idxBody = nil
	}()
	return p.RunContext(ctx, len(ids), p.idxExec)
}
