// Package sched is the parallel-for runtime the sandpile engine
// schedules its iterations over. It stands in for OpenMP's
// `#pragma omp parallel for schedule(...)`: a fixed pool of worker
// goroutines executes index ranges carved from [0, n) according to a
// Policy. Four policies mirror OpenMP's static, static-cyclic
// (schedule(static,1)-style), dynamic, and guided clauses; a fifth,
// work stealing, is the OpenMP-tasks/TBB strategy (stealing.go).
//
// The point of the first sandpile assignment is that policy choice is
// workload-dependent: static wins on uniform work, dynamic/guided win
// on the sparse, imbalanced configurations. This package makes those
// choices first-class and measurable.
package sched

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Policy selects how loop iterations are distributed over workers.
type Policy int

const (
	// Static splits [0, n) into one contiguous block per worker.
	Static Policy = iota
	// Cyclic deals chunks of ChunkSize to workers round-robin,
	// like OpenMP schedule(static, chunk).
	Cyclic
	// Dynamic lets workers grab chunks of ChunkSize from a shared
	// counter, like OpenMP schedule(dynamic, chunk).
	Dynamic
	// Guided grabs exponentially shrinking chunks (remaining/2P,
	// floored at ChunkSize), like OpenMP schedule(guided).
	Guided
	// Stealing (defined in stealing.go) deals chunks to per-worker
	// deques and lets idle workers steal — the OpenMP-tasks/TBB
	// strategy rather than a schedule clause.
)

// Policies lists every policy, in presentation order.
var Policies = []Policy{Static, Cyclic, Dynamic, Guided, Stealing}

// String returns the OpenMP-style policy name.
func (p Policy) String() string {
	switch p {
	case Static:
		return "static"
	case Cyclic:
		return "cyclic"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	case Stealing:
		return "stealing"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// ParsePolicy converts a policy name to a Policy.
func ParsePolicy(s string) (Policy, error) {
	for _, p := range Policies {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("sched: unknown policy %q", s)
}

// Pool is a reusable team of worker goroutines, the analog of an
// OpenMP thread team. A Pool is created once per engine run and
// amortizes goroutine start-up across iterations. Pool methods must
// not be called concurrently with each other.
type Pool struct {
	workers int
	policy  Policy
	chunk   int

	body   func(worker, lo, hi int)
	exec   func(worker, lo, hi int) // body, or the obs wrapper around it
	n      int
	cursor atomic.Int64
	done   sync.WaitGroup
	// indexed-run state: RunIndexedContext stores the id slice and user
	// body here and routes through run with the pre-built idxExec trampoline,
	// so scheduling an index worklist costs no allocation.
	ids     []int32
	idxBody func(worker int, ids []int32)
	idxExec func(worker, lo, hi int)
	// stealing-policy region state, reset by run. The deques and their
	// chunk storage are built lazily once and reused across regions
	// (buildDeques is pre-bound so Once.Do gets a loop-invariant func).
	stealOnce   sync.Once
	deques      []*stealDeque
	buildDeques func()
	work        []chan struct{} // one start channel per worker, so each region runs exactly once per worker
	stop        chan struct{}
	closeOnce   sync.Once
	stopped     atomic.Bool

	// abort short-circuits the current region: set when a body panics
	// (the panic is captured and re-raised in the caller) or when a
	// RunContext watcher sees cancellation. Policy loops check it per
	// chunk; bumping cursor past n unblocks the counter-based claims.
	aborted  atomic.Bool
	panicMu  sync.Mutex
	panicVal any

	// observability (nil/empty when disabled; the disabled hot path is
	// untouched because exec == body then)
	obsOn    bool
	instr    func(worker, lo, hi int)
	tr       *obs.Tracer
	tracks   []obs.TrackID
	busy     []int64 // per-worker busy ns, strided to avoid false sharing
	cRegions *obs.Counter
	cChunks  *obs.Counter
	cSteals  *obs.Counter
	cBusyNS  *obs.Counter
	cIdleNS  *obs.Counter
}

// busyStride spaces per-worker busy slots one cache line apart.
const busyStride = 8

// Options configures a Pool.
type Options struct {
	// Workers is the team size; 0 means GOMAXPROCS.
	Workers int
	// Policy is the loop schedule; default Static.
	Policy Policy
	// ChunkSize is the chunk granularity for Cyclic/Dynamic and the
	// minimum chunk for Guided; 0 means 1.
	ChunkSize int
	// Obs attaches the observability layer: per-worker chunk spans on
	// the "sched" track, plus sched.* counters (regions, chunks,
	// steals, busy/idle time). The zero Sink disables it at no cost.
	Obs obs.Sink
}

// New starts a worker team configured by the options. Callers must
// Close it.
func New(opts ...Option) *Pool {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.ChunkSize <= 0 {
		o.ChunkSize = 1
	}
	p := &Pool{
		workers: o.Workers,
		policy:  o.Policy,
		chunk:   o.ChunkSize,
		work:    make([]chan struct{}, o.Workers),
		stop:    make(chan struct{}),
	}
	if o.Obs.Enabled() {
		p.obsOn = true
		p.tr = o.Obs.Tracer
		p.busy = make([]int64, p.workers*busyStride)
		m := o.Obs.Metrics
		p.cRegions = m.Counter("sched.regions")
		p.cChunks = m.Counter("sched.chunks")
		p.cSteals = m.Counter("sched.steals")
		p.cBusyNS = m.Counter("sched.busy_ns")
		p.cIdleNS = m.Counter("sched.idle_ns")
		if p.tr != nil {
			p.tracks = make([]obs.TrackID, p.workers)
			for w := 0; w < p.workers; w++ {
				p.tracks[w] = p.tr.Track("sched", w, fmt.Sprintf("worker %d", w))
			}
		}
		p.instr = p.observedExec
	}
	p.idxExec = func(worker, lo, hi int) { p.idxBody(worker, p.ids[lo:hi]) }
	p.buildDeques = p.dealDeques
	for w := 0; w < p.workers; w++ {
		p.work[w] = make(chan struct{}, 1)
		go p.worker(w)
	}
	return p
}

// observedExec wraps the region body with per-chunk timing: a span on
// the worker's track and busy-time accounting for the idle counter.
func (p *Pool) observedExec(worker, lo, hi int) {
	t0 := time.Now()
	ts := p.tr.Now() // 0 without a tracer
	p.body(worker, lo, hi)
	el := time.Since(t0)
	p.busy[worker*busyStride] += int64(el)
	p.cChunks.Inc()
	if p.tr != nil {
		p.tr.Span(p.tracks[worker], "chunk", ts, el,
			obs.Arg{Key: "lo", Value: int64(lo)}, obs.Arg{Key: "hi", Value: int64(hi)})
	}
}

// Workers returns the team size.
func (p *Pool) Workers() int { return p.workers }

// Policy returns the configured schedule.
func (p *Pool) Policy() Policy { return p.policy }

// Close terminates the worker team. It is idempotent and safe to call
// from multiple goroutines concurrently. The pool is unusable
// afterwards: RunContext (and RunIndexedContext) on a closed pool
// panics.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		p.stopped.Store(true)
		close(p.stop)
	})
}

// run is the region execution core behind RunContext and
// RunIndexedContext.
func (p *Pool) run(n int, body func(worker, lo, hi int)) {
	if n <= 0 {
		return
	}
	if p.stopped.Load() {
		panic("sched: Run on closed Pool")
	}
	p.body = body
	p.exec = body
	var regionStart time.Time
	if p.obsOn {
		regionStart = time.Now()
		for w := 0; w < p.workers; w++ {
			p.busy[w*busyStride] = 0
		}
		p.exec = p.instr
	}
	p.n = n
	p.cursor.Store(0)
	p.aborted.Store(false)
	p.stealOnce = sync.Once{}
	p.done.Add(p.workers)
	for i := 0; i < p.workers; i++ {
		p.work[i] <- struct{}{}
	}
	p.done.Wait()
	if p.panicVal != nil {
		// A body panicked in a worker: the region was aborted, every
		// worker has joined, and the panic now belongs to the caller.
		// The pool is closed first so it is left in a safe, terminal
		// state (later regions fail fast instead of computing on a region
		// that half-finished).
		r := p.panicVal
		p.panicVal = nil
		p.body = nil
		p.exec = nil
		p.Close()
		panic(r)
	}
	if p.obsOn {
		wall := time.Since(regionStart)
		var busy int64
		for w := 0; w < p.workers; w++ {
			busy += p.busy[w*busyStride]
		}
		idle := int64(wall)*int64(p.workers) - busy
		if idle < 0 {
			idle = 0
		}
		p.cRegions.Inc()
		p.cBusyNS.Add(busy)
		p.cIdleNS.Add(idle)
	}
	p.body = nil
	p.exec = nil
}

func (p *Pool) worker(id int) {
	for {
		select {
		case <-p.stop:
			return
		case <-p.work[id]:
			p.runRegionGuarded(id)
			p.done.Done()
		}
	}
}

// runRegionGuarded runs one region with panic containment: a body
// panic is captured (first one wins), the region is aborted so the
// other workers drain quickly, and the worker goroutine survives to
// let run's barrier complete — run then re-raises the panic in the
// caller. Without this a panicking body would kill the worker before
// done.Done(), leaving run blocked forever.
func (p *Pool) runRegionGuarded(id int) {
	defer func() {
		if r := recover(); r != nil {
			p.panicMu.Lock()
			if p.panicVal == nil {
				p.panicVal = r
			}
			p.panicMu.Unlock()
			p.abort()
		}
	}()
	p.runRegion(id)
}

// abortCursor is the sentinel abort() pushes into the claim counter:
// far past any region length, so Dynamic's "lo >= n" and Guided's
// "remaining <= 0" exits trip on the very next claim. A sentinel —
// not int64(p.n) — because abort runs on RunContext's watcher
// goroutine, where reading the plain p.n field would race with the
// next region's prologue write.
const abortCursor = int64(1) << 62

// abort stops the in-flight region: policy loops check the flag per
// chunk, and pushing cursor past any possible n unblocks the
// Dynamic/Guided counter claims immediately. In-flight chunks are
// never interrupted — run's completion barrier still waits for every
// worker to finish its current body call, so when RunContext returns
// no body is executing and a checkpoint taken right after
// cancellation cannot observe a half-written row.
func (p *Pool) abort() {
	p.aborted.Store(true)
	p.cursor.Store(abortCursor)
}

func (p *Pool) runRegion(id int) {
	switch p.policy {
	case Static:
		per := (p.n + p.workers - 1) / p.workers
		lo := id * per
		hi := lo + per
		if lo >= p.n || p.aborted.Load() {
			return
		}
		if hi > p.n {
			hi = p.n
		}
		p.exec(id, lo, hi)
	case Cyclic:
		stridePer := p.chunk * p.workers
		for base := id * p.chunk; base < p.n && !p.aborted.Load(); base += stridePer {
			hi := base + p.chunk
			if hi > p.n {
				hi = p.n
			}
			p.exec(id, base, hi)
		}
	case Dynamic:
		for !p.aborted.Load() {
			lo := int(p.cursor.Add(int64(p.chunk))) - p.chunk
			if lo >= p.n {
				return
			}
			hi := lo + p.chunk
			if hi > p.n {
				hi = p.n
			}
			p.exec(id, lo, hi)
		}
	case Stealing:
		p.runStealing(id)
	case Guided:
		for !p.aborted.Load() {
			// Estimate remaining work, then claim remaining/(2P)
			// (floored at chunk) with a CAS-free reservation: claim a
			// size first, then check the claimed range.
			for {
				cur := p.cursor.Load()
				remaining := int64(p.n) - cur
				if remaining <= 0 {
					return
				}
				size := remaining / int64(2*p.workers)
				if size < int64(p.chunk) {
					size = int64(p.chunk)
				}
				if p.cursor.CompareAndSwap(cur, cur+size) {
					lo := int(cur)
					hi := int(cur + size)
					if hi > p.n {
						hi = p.n
					}
					p.exec(id, lo, hi)
					break
				}
			}
		}
	default:
		panic(fmt.Sprintf("sched: unknown policy %v", p.policy))
	}
}
