// Package des is the discrete-event simulation kernel underneath the
// carbon-footprint workflow assignment, the stand-in for SimGrid. A
// simulation is partitioned into logical processes (LPs), each owning
// a disjoint slice of model state and a local virtual clock, that
// exchange timestamped messages. Warp executes it either sequentially
// on one event queue (Workers <= 1) or optimistically in parallel:
// Jefferson's Time Warp. There, each worker runs a static partition
// of the LPs speculatively from one event queue; when a message
// arrives in an LP's simulated past (a straggler), the LP rolls back:
// it unwinds an undo log of the state slots its handlers overwrote,
// newest first, un-sends what it sent since (anti-messages), and
// re-executes. A periodically computed global virtual time (GVT)
// lower-bounds every future message, letting the kernel reclaim
// history and undo records older than it (fossil collection) and
// bound optimism (the window throttle).
//
// # Determinism
//
// Committed outcomes are byte-identical across worker counts. Every
// event carries a canonical key
//
//	(time, depth, src LP, per-src sequence)
//
// where depth counts the zero-delay causal chain within one instant
// (a cause always orders before its same-time effects) and the
// sequence number is each LP's deterministic send counter, restored
// on rollback. Each LP processes — after all rollbacks settle — its
// events in exactly ascending key order, and the workers=1 fast path
// executes the same order on a single queue with none of the
// speculation machinery. Models therefore see one canonical
// serialization regardless of Workers, which is what the wfsched
// byte-equality oracles assert.
//
// Anti-message annihilation is by a globally unique message id that
// is *not* part of the key (re-executed sends get fresh ids but the
// same key, so ordering is stable while stale speculation is
// cancelled exactly).
package des

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// LPID identifies a logical process within one Warp.
type LPID int32

// initSrc is the pseudo-source of seed events scheduled before Run.
const initSrc LPID = -1

// Key is the canonical event order: (time, zero-delay causal depth,
// sending LP, per-sender sequence). Keys are unique per message and
// totally ordered; an LP commits its events in ascending Key order.
type Key struct {
	At    float64
	Depth int32
	Src   LPID
	Seq   uint64
}

// Before reports whether a orders strictly before b.
func (a Key) Before(b Key) bool {
	if a.At != b.At {
		return a.At < b.At
	}
	if a.Depth != b.Depth {
		return a.Depth < b.Depth
	}
	if a.Src != b.Src {
		return a.Src < b.Src
	}
	return a.Seq < b.Seq
}

// Payload is the fixed-shape message body. A concrete struct (rather
// than an interface) keeps the hot path free of boxing allocations;
// models pack their own meaning into the fields.
type Payload struct {
	Kind    uint8
	A, B, C int32
	F       float64
}

// State is the rollback-able model state of one LP. The model names
// each scalar field and slice element it writes by a slot of its own
// choosing. Undo writes old back into slot; rollback calls it with the
// records p.Save took, newest first.
type State interface{ Undo(slot int32, old uint64) }

// Handler processes one event for one LP. It must be deterministic —
// a pure function of the LP state and the payload — and it must save
// before it writes: every write to p.State() is preceded by a p.Save
// of the value it overwrites, so that rollback can put it back. It
// must touch no state outside p.State() other than sending messages
// via p.Send.
type Handler func(p *Proc, at float64, pl Payload)

// message is one timestamped event in flight or queued.
type message struct {
	key     Key
	dst     LPID
	neg     bool   // anti-message
	uid     uint64 // annihilation identity; not part of the order
	payload Payload
}

// procRec is one processed (possibly still speculative) event plus
// everything needed to un-process it: the message itself (re-queued
// on rollback), the sends it produced (anti-messaged on rollback),
// the state slots it overwrote (undone on rollback) and the send
// sequence it started from. The sends and undo records live in the
// LP's send log and undo log, slabs shared by all records: an event's
// entries run from its lo (ulo) up to the next record's lo (ulo), so
// recording them allocates nothing once the logs have grown to the
// LP's speculative depth.
type procRec struct {
	m       message
	lo, ulo int32
	seq0    uint64
}

// undoRec is one saved state slot: the value slot held before a
// handler overwrote it.
type undoRec struct {
	slot int32
	old  uint64
}

// Proc is one logical process: state, clock, the history and the undo
// log. Under Time Warp only the worker that owns the LP touches it
// while the run is going (a GVT pass works on it while that worker is
// parked), so nothing here is locked.
type Proc struct {
	id   LPID
	name string
	w    *Warp
	h    Handler
	ww   *warpWorker // owner (Time Warp only)

	state     State
	dead      uidSet // annihilated uids not yet popped / not yet arrived
	processed []procRec
	sendLog   []message // sends of processed, in order; see procRec
	undo      []undoRec // saved slots of processed, in order; see procRec
	saving    bool      // Time Warp: Save records, Send goes via the owner
	base      int64     // fossil-collected events before processed[0]
	sendSeq   uint64
	curKey    Key // of the event being processed
}

// ID returns the LP's identifier.
func (p *Proc) ID() LPID { return p.id }

// Name returns the LP's debug name.
func (p *Proc) Name() string { return p.name }

// Now returns the LP's local virtual time: the timestamp of the event
// being processed.
func (p *Proc) Now() float64 { return p.curKey.At }

// Key returns the canonical key of the event being processed. Keys
// order every LP's committed events into one global sequence, so a
// model can tag what a handler records with it and merge the records
// of several LPs after the run.
func (p *Proc) Key() Key { return p.curKey }

// State returns the LP's model state for the handler to mutate.
func (p *Proc) State() State { return p.state }

// Save records that the handler is about to overwrite state slot,
// which holds old. Rollback hands the record back to State.Undo. The
// sequential kernel never rolls back, so there Save does nothing.
func (p *Proc) Save(slot int32, old uint64) {
	if p.saving {
		p.undo = append(p.undo, undoRec{slot: slot, old: old})
	}
}

// Send schedules a payload on dst after delay simulated seconds.
// Zero-delay sends are ordered after their cause by the depth field
// of the canonical key. Negative and NaN delays panic as in the
// sequential kernel; +Inf panics too — an event at infinity can
// never commit, and a handler that reacts to it by sending again
// would cascade forever, so it is always a model bug.
func (p *Proc) Send(dst LPID, delay float64, pl Payload) {
	if delay < 0 || math.IsNaN(delay) || math.IsInf(delay, 1) {
		panic(fmt.Sprintf("des: invalid delay %v", delay))
	}
	if dst < 0 || int(dst) >= len(p.w.lps) {
		panic(fmt.Sprintf("des: send to unknown LP %d", dst))
	}
	depth := int32(0)
	if delay == 0 {
		depth = p.curKey.Depth + 1
	}
	k := Key{At: p.curKey.At + delay, Depth: depth, Src: p.id, Seq: p.sendSeq}
	p.sendSeq++
	if !p.saving {
		// The sequential kernel: nothing is annihilated, so no uid.
		p.w.seq.push(message{key: k, dst: dst, payload: pl})
		return
	}
	ww := p.ww
	ww.uid += ww.uidStep
	ww.outbox = append(ww.outbox, message{key: k, dst: dst, uid: ww.uid, payload: pl})
}

// WarpConfig configures a Warp.
type WarpConfig struct {
	// Workers is the parallelism. Values <= 1 select the sequential
	// fast path: one event queue, no undo log, no rollback machinery.
	Workers int
	// Window bounds optimism: no LP executes an event more than
	// Window simulated seconds past the current GVT. 0 disables the
	// throttle.
	Window float64
	// Obs attaches metrics (des.committed, des.rollbacks,
	// des.rolled_back, des.antimessages, des.gvt) and rollback spans.
	Obs obs.Sink
}

// WarpStats reports one run's speculation behaviour.
type WarpStats struct {
	// Committed is the number of events in the final (committed)
	// execution — comparable across worker counts and equal to the
	// workers=1 step count.
	Committed int64
	// Rollbacks counts rollback episodes; RolledBack counts events
	// undone (and later re-executed) by them.
	Rollbacks  int64
	RolledBack int64
	// AntiMessages counts anti-messages sent.
	AntiMessages int64
	// GVTPasses counts global-virtual-time computations.
	GVTPasses int64
}

// Warp is an optimistic parallel simulation: a set of LPs, their seed
// events, and the execution engine. Build with NewWarp, add LPs, seed
// initial events, then Run once.
type Warp struct {
	cfg  WarpConfig
	lps  []*Proc
	seed []message

	// seq is the sequential kernel's queue; Send pushes into it.
	seq eventQueue

	// workers are the Time Warp partitions: LP i belongs to worker
	// i mod len(workers).
	workers []*warpWorker

	// Read between every two events, apart from the fields written
	// under mu. attn calls running workers to the safe point: a GVT
	// pass wants them, or the run stopped.
	gvtBits atomic.Uint64
	attn    atomic.Bool
	_       [64]byte

	// mu guards every worker's parking state (why, gen) and the
	// fields below; cond wakes parked workers.
	mu        sync.Mutex
	cond      *sync.Cond
	parked    int    // workers in park, each at the safe point
	gvtWant   bool   // a pass waits for every worker to park
	gvtGen    uint64 // passes completed
	gvtPasses int64
	stopped   bool
	runErr    error
	panicV    any

	cCommitted, cRollbacks, cRolled, cAntis *obs.Counter
	gGVT                                    *obs.Gauge
	tr                                      *obs.Tracer
	track                                   obs.TrackID

	ran bool
}

// warpWorker is one Time Warp partition: the LPs it owns, one queue
// holding all their pending events, and the buffers that carry
// messages to and from the other partitions. Everything but the
// inbox, the mail flag and the parking state is the worker's own.
type warpWorker struct {
	idx int
	q   eventQueue // pending positive events of the worker's LPs

	outbox  []message   // the running handler's sends
	stack   []message   // antis of a rollback left to route
	held    []message   // same-key entries of other LPs, re-queued after a pop
	spare   []message   // the last inbox taken, emptied for the next swap
	out     [][]message // unflushed messages per destination worker
	unsent  int         // messages in out
	uid     uint64      // last uid issued; uids step by uidStep per worker
	uidStep uint64
	ran     int // events executed since the last flush
	gvtRan  int // events executed since the last GVT pass asked for

	// What the worker's LPs did, summed into WarpStats after the run.
	rollbacks, rolledBack, antis int64

	// Written by the workers that send to this one.
	_        [64]byte
	inMu     sync.Mutex
	inbox    []message   // guarded by inMu
	mail     atomic.Bool // inbox is non-empty; set and cleared under inMu
	sleeping atomic.Bool // parked: a sender must wake it

	// Guarded by Warp.mu.
	why parkWhy // why the worker is parked, if it is
	gen uint64  // gvtGen when it parked
}

// parkWhy says what a parked worker waits for.
type parkWhy uint8

const (
	running   parkWhy = iota
	joining           // the GVT pass a worker asked for to finish
	idle              // mail: its queue is empty
	throttled         // mail or a new GVT: its next event lies past the window
)

// NewWarp creates an empty Time Warp simulation.
func NewWarp(cfg WarpConfig) *Warp {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	w := &Warp{cfg: cfg}
	w.cond = sync.NewCond(&w.mu)
	w.gvtBits.Store(math.Float64bits(math.Inf(-1)))
	m := cfg.Obs.Metrics
	w.cCommitted = m.Counter("des.committed")
	w.cRollbacks = m.Counter("des.rollbacks")
	w.cRolled = m.Counter("des.rolled_back")
	w.cAntis = m.Counter("des.antimessages")
	w.gGVT = m.Gauge("des.gvt")
	if tr := cfg.Obs.Tracer; tr != nil {
		w.tr = tr
		w.track = tr.Track("timewarp", 0, "rollbacks")
	}
	return w
}

// AddLP registers a logical process with its state and handler and
// returns its id. State may be nil for stateless LPs (then the
// handler must be memoryless and never call Save). All LPs must be
// added before Run.
func (w *Warp) AddLP(name string, st State, h Handler) LPID {
	if h == nil {
		panic("des: nil LP handler")
	}
	id := LPID(len(w.lps))
	p := &Proc{id: id, name: name, w: w, h: h, state: st, saving: w.cfg.Workers > 1}
	w.lps = append(w.lps, p)
	return id
}

// SeedAt schedules an initial event at absolute time t (>= 0) on lp.
// Seeds fire before any same-time model sends (depth 0, source -1) in
// seeding order. +Inf is rejected for the same reason Send rejects an
// +Inf delay: an event at infinity can never commit, and handlers it
// triggers would cascade further Inf-time sends past Send's checks.
func (w *Warp) SeedAt(lp LPID, t float64, pl Payload) {
	if t < 0 || math.IsNaN(t) || math.IsInf(t, 1) {
		panic(fmt.Sprintf("des: invalid seed time %v", t))
	}
	if lp < 0 || int(lp) >= len(w.lps) {
		panic(fmt.Sprintf("des: seed for unknown LP %d", lp))
	}
	n := uint64(len(w.seed))
	w.seed = append(w.seed, message{
		key: Key{At: t, Depth: 0, Src: initSrc, Seq: n},
		dst: lp, uid: n + 1, payload: pl,
	})
}

// LPState returns an LP's state (for reading results after Run).
func (w *Warp) LPState(id LPID) State { return w.lps[id].state }

// GVT returns the last computed global virtual time (-Inf before the
// first pass; only meaningful with Workers > 1).
func (w *Warp) GVT() float64 { return math.Float64frombits(w.gvtBits.Load()) }

// Stats returns the run's speculation statistics. Call it after Run.
func (w *Warp) Stats() WarpStats {
	st := WarpStats{GVTPasses: w.gvtPasses}
	for _, p := range w.lps {
		st.Committed += p.base + int64(len(p.processed))
	}
	for _, ww := range w.workers {
		st.Rollbacks += ww.rollbacks
		st.RolledBack += ww.rolledBack
		st.AntiMessages += ww.antis
	}
	return st
}

// Run executes the simulation until every LP drains, or ctx is
// cancelled (returning ctx.Err()). It may be called once.
func (w *Warp) Run(ctx context.Context) error {
	if w.ran {
		panic("des: Warp.Run called twice")
	}
	w.ran = true
	if w.cfg.Workers <= 1 {
		return w.runSequential(ctx)
	}
	return w.runParallel(ctx)
}

// ---------------------------------------------------------------
// Sequential fast path: the plain kernel. One queue ordered by the
// canonical key, no locks, no undo log, no rollbacks — and exactly
// the per-LP event order the parallel path commits.
// ---------------------------------------------------------------

func (w *Warp) runSequential(ctx context.Context) error {
	q := &w.seq
	q.h = make([]qent, 0, len(w.seed))
	q.slab = make([]message, 0, len(w.seed))
	for _, m := range w.seed {
		q.push(m)
	}
	var steps int64
	for i := 0; ; i++ {
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				w.commitSeqCount(steps)
				return err
			}
		}
		if q.len() == 0 {
			break
		}
		m := q.pop()
		p := w.lps[m.dst]
		p.curKey = m.key
		p.h(p, m.key.At, m.payload) // its sends go straight into q
		p.base++                    // base doubles as the committed count here
		steps++
	}
	w.commitSeqCount(steps)
	return nil
}

func (w *Warp) commitSeqCount(steps int64) {
	w.cCommitted.Add(steps)
}

// ---------------------------------------------------------------
// Parallel path: static partitions, the processing elements of ROSS.
// A worker executes the minimum of its own queue, as the sequential
// kernel does; only its own LPs ever run on it, so no LP is locked.
// Sends to a partition's own LPs are delivered at once; sends to
// another partition are buffered and go to the owner's inbox, which
// the owner drains between events.
// ---------------------------------------------------------------

// flushEvery is how many events a worker runs between flushes of its
// buffered sends; gvtEvery, between the GVT passes it asks for. Tests
// shrink them to interleave flushes and passes with every event.
var (
	flushEvery = 32
	gvtEvery   = 256
)

func (w *Warp) runParallel(ctx context.Context) error {
	w.partition()
	for _, m := range w.seed {
		w.lps[m.dst].ww.q.push(m)
	}
	w.runWorkers(ctx)
	if w.panicV != nil {
		panic(w.panicV)
	}
	// Record the counts even on a cancelled/failed run, mirroring
	// the sequential path's partial count.
	st := w.Stats()
	w.cCommitted.Add(st.Committed)
	w.cRollbacks.Add(st.Rollbacks)
	w.cRolled.Add(st.RolledBack)
	w.cAntis.Add(st.AntiMessages)
	return w.runErr
}

// partition builds min(Workers, LPs) workers and hands LP i to worker
// i mod n. Worker k issues uids seeds+k+n, seeds+k+2n, ...: unique
// across workers, and increasing on each, so of two incarnations of
// one send (same source LP, same owner) the later has the larger uid.
func (w *Warp) partition() {
	n := max(1, min(w.cfg.Workers, len(w.lps)))
	w.workers = make([]*warpWorker, n)
	for i := range w.workers {
		w.workers[i] = &warpWorker{
			idx: i, out: make([][]message, n),
			uid: uint64(len(w.seed) + i), uidStep: uint64(n),
		}
	}
	for i, p := range w.lps {
		p.ww = w.workers[i%n]
	}
}

// runWorkers runs every worker's loop to the drain or the stop.
func (w *Warp) runWorkers(ctx context.Context) {
	var wg sync.WaitGroup
	for _, ww := range w.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.workerLoop(ctx, ww)
		}()
	}
	wg.Wait()
}

// abort stops every worker, recording why.
func (w *Warp) abort(err error, panicV any) {
	w.mu.Lock()
	if !w.stopped {
		w.stopped = true
		w.runErr = err
		w.panicV = panicV
	}
	w.attn.Store(true)
	w.mu.Unlock()
	w.cond.Broadcast()
}

func (w *Warp) workerLoop(ctx context.Context, ww *warpWorker) {
	defer func() {
		if r := recover(); r != nil {
			w.abort(nil, r)
		}
	}()
	for i := 0; ; i++ {
		if ww.mail.Load() {
			w.drain(ww)
		}
		if w.attn.Load() {
			if !w.park(ww, joining) {
				return
			}
			continue
		}
		if i&63 == 0 {
			if err := ctx.Err(); err != nil {
				w.abort(err, nil)
				return
			}
		}
		m, why := w.next(ww)
		if why != running {
			if !w.park(ww, why) {
				return
			}
			continue
		}
		w.exec(ww, m)
		if ww.ran++; ww.ran >= flushEvery && ww.unsent > 0 {
			w.flush(ww)
		}
		if ww.gvtRan++; ww.gvtRan >= gvtEvery {
			ww.gvtRan = 0
			w.mu.Lock()
			w.gvtWant = true // the loop then parks for the pass
			w.attn.Store(true)
			w.mu.Unlock()
		}
	}
}

// next pops the worker's minimum live event. It reports idle instead
// when the queue holds nothing live, and throttled when the minimum
// lies more than Window past GVT: annihilated entries are discarded
// first, so neither answer rests on a dead key.
func (w *Warp) next(ww *warpWorker) (message, parkWhy) {
	horizon := math.Inf(1)
	if w.cfg.Window > 0 {
		if gvt := math.Float64frombits(w.gvtBits.Load()); !math.IsInf(gvt, -1) {
			horizon = gvt + w.cfg.Window
		}
	}
	q := &ww.q
	for q.len() > 0 {
		if q.h[0].key.At > horizon {
			if top := q.top(); !w.lps[top.dst].dead.take(top.uid) {
				return message{}, throttled
			}
			q.pop()
			continue
		}
		if m := q.pop(); !w.lps[m.dst].dead.take(m.uid) {
			return w.resolve(ww, m), running
		}
	}
	return message{}, idle
}

// resolve takes m, the live minimum just popped, and resolves stale
// incarnations. Canonical keys are unique per logical event, so two
// positives for one LP sharing a key are an old and a new incarnation
// of a send that was rolled back and re-issued at its source; only
// the largest uid can be live, and an anti-message for each smaller
// one is already in flight. Equal keys sit together at the top of the
// heap: resolve takes them all, keeps the largest live uid for m's LP,
// marks the rest dead for their antis to consume, and puts back those
// of other LPs (a re-issued send may change its destination). An LP
// therefore never executes one logical event twice.
func (w *Warp) resolve(ww *warpWorker, m message) message {
	q := &ww.q
	for q.len() > 0 && q.h[0].key == m.key {
		x := q.pop()
		p := w.lps[x.dst]
		if p.dead.take(x.uid) {
			continue
		}
		if x.dst != m.dst {
			ww.held = append(ww.held, x)
			continue
		}
		if x.uid > m.uid {
			m, x = x, m
		}
		p.dead.add(x.uid)
	}
	for _, x := range ww.held {
		q.push(x)
	}
	ww.held = ww.held[:0]
	return m
}

// exec runs one event, records it for rollback, and routes its sends.
func (w *Warp) exec(ww *warpWorker, m message) {
	p := w.lps[m.dst]
	rec := procRec{m: m, lo: int32(len(p.sendLog)), ulo: int32(len(p.undo)), seq0: p.sendSeq}
	p.curKey = m.key
	ww.outbox = ww.outbox[:0]
	p.h(p, m.key.At, m.payload)
	p.processed = append(p.processed, rec)
	p.sendLog = append(p.sendLog, ww.outbox...)
	for _, s := range ww.outbox {
		w.route(ww, s)
	}
}

// route hands m to its destination: delivered now when the worker
// owns the destination, buffered for the owner's inbox when it does
// not. A local delivery can roll an LP back, and the antis that emits
// are routed the same way until none is left.
func (w *Warp) route(ww *warpWorker, m message) {
	for {
		if o := w.lps[m.dst].ww; o != ww {
			ww.out[o.idx] = append(ww.out[o.idx], m)
			ww.unsent++
		} else {
			w.deliver(ww, &m)
		}
		n := len(ww.stack)
		if n == 0 {
			return
		}
		m = ww.stack[n-1]
		ww.stack = ww.stack[:n-1]
	}
}

// flush moves the worker's buffered sends into their owners' inboxes
// and wakes any owner parked waiting for them. An empty inbox swaps
// buffers with the sender instead of copying.
func (w *Warp) flush(ww *warpWorker) {
	ww.ran = 0
	if ww.unsent == 0 {
		return
	}
	ww.unsent = 0
	for i, msgs := range ww.out {
		if len(msgs) == 0 {
			continue
		}
		o := w.workers[i]
		o.inMu.Lock()
		if len(o.inbox) == 0 {
			o.inbox, ww.out[i] = msgs, o.inbox
		} else {
			o.inbox = append(o.inbox, msgs...)
			ww.out[i] = msgs[:0]
		}
		o.mail.Store(true)
		o.inMu.Unlock()
		// The owner sets sleeping before it last looks at mail, so one
		// of the two sees the other; mu orders the wake after its Wait.
		if o.sleeping.Load() {
			w.mu.Lock()
			w.mu.Unlock()
			w.cond.Broadcast()
		}
	}
}

// drain takes the worker's inbox and delivers it.
func (w *Warp) drain(ww *warpWorker) {
	ww.inMu.Lock()
	in := ww.inbox
	ww.inbox = ww.spare
	ww.mail.Store(false)
	ww.inMu.Unlock()
	for _, m := range in {
		w.route(ww, m)
	}
	ww.spare = in[:0]
}

// deliver hands one message to an LP the worker owns, rolling the LP
// back if the message lands in its past.
func (w *Warp) deliver(ww *warpWorker, m *message) {
	p := w.lps[m.dst]
	if m.neg {
		ww.antis++
		if p.dead.take(m.uid) {
			// The positive was already annihilated: a stale
			// incarnation dropped on arrival or at pop.
			return
		}
		// Annihilate: processed -> roll back past it, and the
		// re-queued positive dies at pop; pending or not-yet-arrived
		// -> dead set. The uid must match: a same-key processed event
		// may be a newer (live) incarnation this anti has no business
		// undoing.
		if p.inPast(m.key) {
			if i, ok := p.findProcessed(m.key); ok && p.processed[i].m.uid == m.uid {
				w.rollback(ww, p, i)
			}
		}
		p.dead.add(m.uid)
		return
	}
	if p.dead.take(m.uid) {
		return // annihilated before arrival
	}
	if p.inPast(m.key) {
		i := p.searchProcessed(m.key) // < len(p.processed): m is in the past
		if rec := &p.processed[i]; rec.m.key == m.key && rec.m.uid > m.uid {
			// m is a stale incarnation of an already-executed event;
			// drop it and let its in-flight anti consume the mark.
			p.dead.add(m.uid)
			return
		}
		// Either m is a straggler, or the processed copy with m's key
		// is the stale incarnation: roll back past it. Its re-queued
		// positive lands next to m in the queue and resolve
		// annihilates it.
		w.rollback(ww, p, i)
	}
	ww.q.push(*m)
}

// uidSet holds an LP's annihilation marks. A mark pairs a positive
// with its anti-message: whichever of the two is dealt with first
// leaves it (an anti ahead of its positive, or a stale positive
// dropped ahead of its anti), and the other takes it. Every uid has
// at most one positive and one anti, and callers take before they
// add, so add never sees a marked uid.
//
// The set is small but seldom empty: an anti-message can precede its
// positive by a long stretch of simulated time, and the mark waits
// that long. Nearly every lookup is a miss, so a per-bucket count of
// marks by uid%64 answers most of them without hashing; the map is
// the authority.
type uidSet struct {
	m   map[uint64]struct{}
	occ [64]int32
}

func (s *uidSet) add(uid uint64) {
	if s.m == nil {
		s.m = map[uint64]struct{}{}
	}
	s.m[uid] = struct{}{}
	s.occ[uid%64]++
}

// take removes uid and reports whether it was present.
func (s *uidSet) take(uid uint64) bool {
	if s.occ[uid%64] == 0 {
		return false
	}
	if _, ok := s.m[uid]; !ok {
		return false
	}
	delete(s.m, uid)
	s.occ[uid%64]--
	return true
}

// inPast reports whether k orders at or before p's last processed
// event, so that delivering it means rolling back.
func (p *Proc) inPast(k Key) bool {
	n := len(p.processed)
	return n > 0 && !p.processed[n-1].m.key.Before(k)
}

// searchProcessed returns the first index whose key is >= k.
func (p *Proc) searchProcessed(k Key) int {
	lo, hi := 0, len(p.processed)
	for lo < hi {
		mid := (lo + hi) / 2
		if p.processed[mid].m.key.Before(k) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// findProcessed locates the processed event with exactly key k.
func (p *Proc) findProcessed(k Key) (int, bool) {
	i := p.searchProcessed(k)
	if i < len(p.processed) && p.processed[i].m.key == k {
		return i, true
	}
	return 0, false
}

// rollback rewinds p to just before processed[i]: unwind the undo log
// newest-first down to that event's first record, restore its send
// sequence, re-queue the undone events' messages in the owner's queue,
// and anti-message their sends through the owner's delivery stack.
func (w *Warp) rollback(ww *warpWorker, p *Proc, i int) {
	n := len(p.processed) - i
	ww.rollbacks++
	ww.rolledBack += int64(n)
	if w.tr != nil {
		w.tr.Instant(w.track, fmt.Sprintf("rollback %s depth=%d", p.name, n), w.tr.Now())
	}

	rec := p.processed[i]
	for j := len(p.undo) - 1; j >= int(rec.ulo); j-- {
		p.state.Undo(p.undo[j].slot, p.undo[j].old)
	}
	p.undo = p.undo[:rec.ulo]
	p.sendSeq = rec.seq0

	// Undo the rolled-back suffix: messages back to the queue, sends
	// anti-messaged and cut from the send log.
	for _, r := range p.processed[i:] {
		ww.q.push(r.m)
	}
	for _, sm := range p.sendLog[rec.lo:] {
		sm.neg = true
		ww.stack = append(ww.stack, sm)
	}
	p.sendLog = p.sendLog[:rec.lo]
	p.processed = p.processed[:i]
}

// park blocks the worker at the safe point — no event half done,
// every send it produced flushed — until there is work for it: the
// end of the GVT pass it joins, mail, or (throttled) a new GVT. It
// returns false once the run stops.
//
// Once every worker is parked, nothing is executing and nothing is in
// flight outside the inboxes: every live event sits in a worker's
// queue or inbox, so the last worker to park can scan a consistent
// cut. It runs the GVT pass a worker asked for; with no pass wanted
// and no mail, it ends the run if all workers are idle, and runs a
// pass itself if one waits on the window. GVT then equals the minimum
// live event, whose owner is within the window, so that pass always
// frees a worker and parked workers never spin through passes that
// change nothing.
func (w *Warp) park(ww *warpWorker, why parkWhy) bool {
	w.flush(ww)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.parked++
	ww.why, ww.gen = why, w.gvtGen
	ww.sleeping.Store(true)
	defer func() {
		w.parked--
		ww.why = running
		ww.sleeping.Store(false)
	}()
	for !w.stopped {
		all := w.parked == len(w.workers)
		if w.gvtWant && all {
			w.gvtWant = false
			w.attn.Store(false)
			w.scanGVT()
			w.cond.Broadcast()
		}
		if !w.gvtWant {
			switch {
			case why == joining, ww.mail.Load(), why == throttled && w.gvtGen != ww.gen:
				return true
			}
			// A worker about to leave park (mail, its pass over, a GVT
			// it has not looked at) makes the moment no stall.
			waking, stuck := false, false
			for _, o := range w.workers {
				waking = waking || o.mail.Load() || o.why == joining || o.why == throttled && o.gen != w.gvtGen
				stuck = stuck || o.why == throttled
			}
			switch {
			case all && !waking && !stuck:
				w.stopped = true
				w.attn.Store(true)
				w.cond.Broadcast()
				return false
			case all && !waking:
				w.scanGVT()
				w.cond.Broadcast()
				continue
			}
		}
		w.cond.Wait()
	}
	return false
}

// scanGVT sets GVT to the minimum timestamp among every worker's live
// queued events and inboxes (anti-messages included: one can still
// roll its LP back to its time) and drops the history older than it.
// Every worker must be parked and w.mu held.
func (w *Warp) scanGVT() {
	w.gvtPasses++
	w.gvtGen++
	min := math.Inf(1)
	for _, ww := range w.workers {
		for q := &ww.q; q.len() > 0; q.pop() {
			if top := q.top(); !w.lps[top.dst].dead.take(top.uid) {
				min = math.Min(min, top.key.At)
				break
			}
		}
		ww.inMu.Lock()
		for _, m := range ww.inbox {
			min = math.Min(min, m.key.At)
		}
		ww.inMu.Unlock()
	}
	if math.IsInf(min, 1) {
		return // drained; nothing to bound
	}
	old := math.Float64frombits(w.gvtBits.Load())
	if min < old {
		min = old // GVT is monotone; a conservative stale min is fine
	}
	w.gvtBits.Store(math.Float64bits(min))
	w.gGVT.Set(min)

	// Fossil collection: no rollback reaches an event older than GVT,
	// so its history record, sends and undo records are dropped.
	for _, p := range w.lps {
		cut := 0
		for cut < len(p.processed) && p.processed[cut].m.key.At < min {
			cut++
		}
		if cut > 0 {
			p.fossilCollect(cut)
		}
	}
}

// fossilCollect drops the first cut history records, compacting the
// history, the send log and the undo log in place so their backing
// arrays are reused rather than re-grown.
func (p *Proc) fossilCollect(cut int) {
	lo, ulo := int32(len(p.sendLog)), int32(len(p.undo))
	if cut < len(p.processed) {
		lo, ulo = p.processed[cut].lo, p.processed[cut].ulo
	}
	p.sendLog = p.sendLog[:copy(p.sendLog, p.sendLog[lo:])]
	p.undo = p.undo[:copy(p.undo, p.undo[ulo:])]
	p.processed = p.processed[:copy(p.processed, p.processed[cut:])]
	for j := range p.processed {
		p.processed[j].lo -= lo
		p.processed[j].ulo -= ulo
	}
	p.base += int64(cut)
}

// ---------------------------------------------------------------
// The event queue.
// ---------------------------------------------------------------

// qent is one event-queue entry: a canonical key and a reference to
// what it orders, 32 bytes in all.
type qent struct {
	key Key
	ref int32
}

// eventQueue is a binary min-heap of entries by canonical key, and
// every queue of the kernel is one: the sequential kernel's global
// queue and each Time Warp partition's queue. Message bodies live in
// a slab, the entries referring to slab slots that a free list
// recycles. Sifting moves only the compact entries, so a
// few-hundred-entry heap stays in L1, and each message body is
// written once at push and read once at pop. The heap is typed rather
// than built on the standard heap package, whose interface boxing
// allocates on every push and pop.
type eventQueue struct {
	h    []qent
	slab []message
	free []int32
}

func (q *eventQueue) len() int { return len(q.h) }

// push queues m, storing its body in a free slab slot.
func (q *eventQueue) push(m message) {
	var ref int32
	if n := len(q.free); n > 0 {
		ref = q.free[n-1]
		q.free = q.free[:n-1]
		q.slab[ref] = m
	} else {
		ref = int32(len(q.slab))
		q.slab = append(q.slab, m)
	}
	q.pushRef(m.key, ref)
}

// pop removes and returns the minimum message, freeing its slot.
func (q *eventQueue) pop() message {
	ref := q.popRef().ref
	q.free = append(q.free, ref)
	return q.slab[ref]
}

// top returns the minimum message without removing it.
func (q *eventQueue) top() *message { return &q.slab[q.h[0].ref] }

// pushRef queues ref at key k, sifting a hole up from the end.
func (q *eventQueue) pushRef(k Key, ref int32) {
	q.h = append(q.h, qent{})
	s := q.h
	i := len(s) - 1
	for i > 0 {
		up := (i - 1) / 2
		if !k.Before(s[up].key) {
			break
		}
		s[i] = s[up]
		i = up
	}
	s[i] = qent{key: k, ref: ref}
}

// popRef removes and returns the minimum entry. The hole left at the
// root sinks along the smaller child, chosen without a branch, until
// the former last entry fits in it.
func (q *eventQueue) popRef() qent {
	s := q.h
	top := s[0]
	n := len(s) - 1
	last := s[n]
	s = s[:n]
	q.h = s
	i := 0
	for {
		c := 2*i + 1
		if c+1 < n {
			c += b2i(s[c+1].key.Before(s[c].key))
		} else if c >= n {
			break
		}
		if !s[c].key.Before(last.key) {
			break
		}
		s[i] = s[c]
		i = c
	}
	if n > 0 {
		s[i] = last
	}
	return top
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
