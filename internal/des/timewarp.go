// Package des is the discrete-event simulation kernel underneath the
// carbon-footprint workflow assignment, the stand-in for SimGrid. A
// simulation is partitioned into logical processes (LPs), each owning
// a disjoint slice of model state and a local virtual clock, that
// exchange timestamped messages. Warp executes it either sequentially
// on one event queue (Workers <= 1) or optimistically in parallel:
// Jefferson's Time Warp. There, LPs run speculatively on a worker
// pool; when a message arrives in an LP's simulated past (a
// straggler), the LP rolls back: it unwinds an undo log of the state
// slots its handlers overwrote, newest first, un-sends what it sent
// since (anti-messages), and re-executes. A periodically computed
// global virtual time (GVT) lower-bounds every future message,
// letting the kernel reclaim history and undo records older than it
// (fossil collection) and bound optimism (the window throttle).
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
	"runtime"
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
	uid     uint64 // annihilation identity; not part of the order
	neg     bool   // anti-message
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

// Proc is one logical process: state, clock, input/output queues, and
// the history and undo log. All fields below mu are guarded by it.
type Proc struct {
	id   LPID
	name string
	w    *Warp
	h    Handler

	mu        sync.Mutex
	state     State
	pending   eventQueue
	dead      uidSet // annihilated uids not yet popped / not yet arrived
	processed []procRec
	sendLog   []message // sends of processed, in order; see procRec
	undo      []undoRec // saved slots of processed, in order; see procRec
	saving    bool      // Time Warp: Save records, Send goes via outbox
	base      int64     // fossil-collected events before processed[0]
	sendSeq   uint64
	running   bool
	inQueue   bool
	queuedKey Key

	// per-event scratch, owned by the executing worker (Time Warp only):
	outbox []message
	curKey Key // of the event being processed
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
	p.outbox = append(p.outbox, message{
		key: k, dst: dst, uid: p.w.uid.Add(1), payload: pl,
	})
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
	uid  atomic.Uint64

	gvtBits    atomic.Uint64
	rollbacks  atomic.Int64
	rolledBack atomic.Int64
	antis      atomic.Int64
	gvtPasses  atomic.Int64
	batches    atomic.Int64

	// seq is the sequential kernel's queue; Send pushes into it.
	seq eventQueue
	// runq holds runnable LPs: ref is the LP, key its queued key.
	// Stale entries are skipped at pop.
	runq    eventQueue
	qmu     sync.Mutex
	qcond   *sync.Cond
	waiting int
	stopped bool
	runErr  error
	panicV  any

	gvtMu   sync.Mutex // serializes GVT passes
	gvtWant bool       // guarded by qmu: a pass is waiting for quiescence
	gvtSafe int        // guarded by qmu: workers parked at the safe point

	cCommitted, cRollbacks, cRolled, cAntis *obs.Counter
	gGVT                                    *obs.Gauge
	tr                                      *obs.Tracer
	track                                   obs.TrackID

	ran bool
}

type warpWorker struct {
	queue  []message // undelivered sends + cascading anti-messages
	outbox []message // lent to the LP running a batch; reused across batches
}

// NewWarp creates an empty Time Warp simulation.
func NewWarp(cfg WarpConfig) *Warp {
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	w := &Warp{cfg: cfg}
	w.qcond = sync.NewCond(&w.qmu)
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
	w.seed = append(w.seed, message{
		key: Key{At: t, Depth: 0, Src: initSrc, Seq: uint64(len(w.seed))},
		dst: lp, uid: w.uid.Add(1), payload: pl,
	})
}

// LPState returns an LP's state (for reading results after Run).
func (w *Warp) LPState(id LPID) State { return w.lps[id].state }

// GVT returns the last computed global virtual time (-Inf before the
// first pass; only meaningful with Workers > 1).
func (w *Warp) GVT() float64 { return math.Float64frombits(w.gvtBits.Load()) }

// Stats returns the run's speculation statistics.
func (w *Warp) Stats() WarpStats {
	var committed int64
	for _, p := range w.lps {
		committed += p.base + int64(len(p.processed))
	}
	return WarpStats{
		Committed:    committed,
		Rollbacks:    w.rollbacks.Load(),
		RolledBack:   w.rolledBack.Load(),
		AntiMessages: w.antis.Load(),
		GVTPasses:    w.gvtPasses.Load(),
	}
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
// Parallel path.
// ---------------------------------------------------------------

// batchSize bounds how many events a worker processes per LP
// acquisition; small enough to keep cross-LP messages flowing,
// large enough to amortize queue locking. gvtEvery triggers a
// GVT/fossil pass every this many batches (counted across all
// workers). Variables rather than constants so stress tests can
// shrink them to interleave GVT passes with nearly every event.
var (
	batchSize = 32
	gvtEvery  = int64(64)
)

func (w *Warp) runParallel(ctx context.Context) error {
	// Deliver seeds directly: nothing is running yet.
	for _, m := range w.seed {
		w.lps[m.dst].pushPending(m)
	}
	for _, p := range w.lps {
		if p.pending.len() > 0 {
			k := p.pending.h[0].key
			p.inQueue = true
			p.queuedKey = k
			w.runq.pushRef(k, int32(p.id))
		}
	}
	var wg sync.WaitGroup
	for i := 0; i < w.cfg.Workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.workerLoop(ctx, &warpWorker{})
		}()
	}
	wg.Wait()
	if w.panicV != nil {
		panic(w.panicV)
	}
	// Record committed work even on a cancelled/failed run, mirroring
	// the sequential path's partial count.
	w.cCommitted.Add(w.Stats().Committed)
	return w.runErr
}

// abort stops every worker, recording why.
func (w *Warp) abort(err error, panicV any) {
	w.qmu.Lock()
	if !w.stopped {
		w.stopped = true
		w.runErr = err
		w.panicV = panicV
	}
	w.qmu.Unlock()
	w.qcond.Broadcast()
}

func (w *Warp) workerLoop(ctx context.Context, ww *warpWorker) {
	defer func() {
		if r := recover(); r != nil {
			w.abort(nil, r)
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			w.abort(err, nil)
			return
		}
		p := w.acquire()
		if p == nil {
			return // drained or stopped
		}
		w.runBatch(p, ww)
		if n := w.batches.Add(1); n%gvtEvery == 0 {
			w.gvtPass()
		}
	}
}

// acquire pops the lowest-timestamp runnable LP, blocking until one
// exists, the simulation drains, or the run stops. It marks the LP
// running. A nil return means stop.
//
// Lock order is always p.mu before qmu (deliver and enqueueLocked
// nest that way), so acquire releases qmu before touching an LP.
func (w *Warp) acquire() *Proc {
	for {
		w.qmu.Lock()
		for !w.stopped {
			if w.gvtWant {
				// A GVT pass is quiescing the pool. This worker
				// holds no LP and has delivered every send it
				// produced, so it is exactly the consistent-cut
				// participant the pass needs: park here until the
				// pass completes.
				w.gvtSafe++
				w.qcond.Broadcast() // the pass waits on gvtSafe
				for w.gvtWant && !w.stopped {
					w.qcond.Wait()
				}
				w.gvtSafe--
				continue
			}
			if w.runq.len() > 0 {
				break
			}
			// Queue empty: if every other worker is also waiting,
			// the simulation has drained (any LP with live pending
			// events is either queued or running, and a running
			// worker is not waiting).
			w.waiting++
			if w.waiting == w.cfg.Workers {
				w.stopped = true
				w.qcond.Broadcast()
				break
			}
			w.qcond.Wait()
			w.waiting--
		}
		if w.stopped {
			w.qmu.Unlock()
			return nil
		}
		e := w.runq.popRef()
		w.qmu.Unlock()
		p := w.lps[e.ref]
		p.mu.Lock()
		if p.running || !p.inQueue || e.key != p.queuedKey {
			p.mu.Unlock() // stale entry
			continue
		}
		// Window throttle: defer LPs too far past GVT. The LP holding
		// the minimum live event is always within the window (GVT
		// never trails it), so a GVT pass here makes progress, never
		// livelock: either this call runs one, or the concurrent pass
		// it yields to publishes a fresh GVT before this worker's next
		// attempt. The queued key may be gone, though: anti-messages
		// annihilate pending events without re-queueing the LP, and
		// throttling on a dead key livelocks once nothing live
		// remains, because the pass then finds no minimum and leaves
		// GVT where it was. So an LP with no live event is dropped
		// (the next delivery re-queues it), and one with a later live
		// minimum is re-queued at that key.
		if w.cfg.Window > 0 {
			gvt := math.Float64frombits(w.gvtBits.Load())
			if !math.IsInf(gvt, -1) && e.key.At > gvt+w.cfg.Window {
				k, ok := p.peekPending()
				if !ok {
					p.inQueue = false
					p.mu.Unlock()
					continue
				}
				p.queuedKey = k
				p.mu.Unlock()
				w.qmu.Lock()
				w.runq.pushRef(k, int32(p.id))
				w.qmu.Unlock()
				w.gvtPass()
				runtime.Gosched()
				continue
			}
		}
		p.running = true
		p.inQueue = false
		p.mu.Unlock()
		return p
	}
}

// enqueueLocked (re)inserts p into the run queue; p.mu must be held.
func (w *Warp) enqueueLocked(p *Proc) {
	k, ok := p.peekPending()
	if !ok || p.running {
		return
	}
	if p.inQueue && !k.Before(p.queuedKey) {
		return
	}
	p.inQueue = true
	p.queuedKey = k
	w.qmu.Lock()
	w.runq.pushRef(k, int32(p.id))
	w.qmu.Unlock()
	w.qcond.Signal()
}

// runBatch processes up to batchSize events on p, then delivers the
// sends they produced.
func (w *Warp) runBatch(p *Proc, ww *warpWorker) {
	w.runBatchLocked(p, ww)
	w.deliverAll(ww, ww.outbox)
}

// runBatchLocked is the under-lock half of runBatch. p borrows the
// worker's outbox for the batch and hands it back holding the batch's
// cross-LP sends. The unlock is deferred (not inline) so that a
// panicking model handler releases p.mu on the way out — sibling
// workers then observe the abort instead of deadlocking on the LP.
func (w *Warp) runBatchLocked(p *Proc, ww *warpWorker) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.outbox = ww.outbox[:0]
	var horizon float64
	if w.cfg.Window > 0 {
		gvt := math.Float64frombits(w.gvtBits.Load())
		if math.IsInf(gvt, -1) {
			horizon = math.Inf(1)
		} else {
			horizon = gvt + w.cfg.Window
		}
	} else {
		horizon = math.Inf(1)
	}
	for n := 0; n < batchSize; n++ {
		m, ok := p.popPending()
		if !ok {
			break
		}
		if m.key.At > horizon {
			p.pushPending(m) // beyond the optimism window
			break
		}
		w.execLocked(p, m)
	}
	ww.outbox = p.outbox
	p.outbox = nil
	p.running = false
	w.enqueueLocked(p)
}

// execLocked runs one event on p (p.mu held), recording it for
// rollback. Cross-LP sends accumulate in p.outbox for delivery after
// the batch releases p.
func (w *Warp) execLocked(p *Proc, m message) {
	rec := procRec{m: m, lo: int32(len(p.sendLog)), ulo: int32(len(p.undo)), seq0: p.sendSeq}
	p.curKey = m.key
	mark := len(p.outbox)
	p.h(p, m.key.At, m.payload)
	sends := p.outbox[mark:]
	if len(sends) > 0 {
		p.sendLog = append(p.sendLog, sends...)
		// Self-sends go straight into this LP's pending queue: their
		// keys are strictly after the current event's, so they can
		// never be stragglers, and skipping the delivery round-trip
		// avoids rolling back a batch that ran past them.
		kept := p.outbox[:mark]
		for _, s := range sends {
			if s.dst == p.id {
				p.pushPending(s)
			} else {
				kept = append(kept, s)
			}
		}
		p.outbox = kept
	}
	p.processed = append(p.processed, rec)
}

// deliverAll routes messages (and any antis cascading from the
// rollbacks they cause) until the worker's delivery queue drains.
func (w *Warp) deliverAll(ww *warpWorker, msgs []message) {
	ww.queue = append(ww.queue, msgs...)
	for len(ww.queue) > 0 {
		m := ww.queue[len(ww.queue)-1]
		ww.queue = ww.queue[:len(ww.queue)-1]
		w.deliver(ww, m)
	}
}

// deliver hands one message to its destination, rolling the
// destination back if the message lands in its past.
func (w *Warp) deliver(ww *warpWorker, m message) {
	p := w.lps[m.dst]
	p.mu.Lock()
	// Deferred so a panicking State.Undo releases p.mu.
	defer p.mu.Unlock()
	if m.neg {
		w.antis.Add(1)
		w.cAntis.Inc()
		if p.dead.take(m.uid) {
			// The positive was already annihilated: a stale
			// incarnation dropped on arrival or at pop.
			return
		}
		// Annihilate: processed -> roll back past it, then kill the
		// re-queued positive; pending or not-yet-arrived -> dead set.
		// The uid must match: a same-key processed event may be a
		// newer (live) incarnation this anti has no business undoing.
		if p.inPast(m.key) {
			if i, ok := p.findProcessed(m.key); ok && p.processed[i].m.uid == m.uid {
				w.rollbackLocked(p, ww, i)
			}
		}
		p.dead.add(m.uid)
		w.enqueueLocked(p) // min key may have changed
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
		// positive lands next to m in the pending queue and popPending
		// annihilates it.
		w.rollbackLocked(p, ww, i)
	}
	p.pushPending(m)
	w.enqueueLocked(p)
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

// pushPending inserts a positive message into p's pending queue.
// Stale incarnations are not looked for here: popPending resolves
// them. p.mu must be held.
func (p *Proc) pushPending(m message) { p.pending.push(m) }

// popPending pops the minimum live pending message, lazily discarding
// annihilated entries, and resolves stale incarnations. Canonical keys
// are unique per logical event, so two positives sharing a key are an
// old and a new incarnation of a send that was rolled back and
// re-issued at its source; only the largest uid can be live, and an
// anti-message for each smaller one is already in flight. Equal keys
// sit together at the top of the heap, so the pop takes them all,
// keeps the largest live uid and marks the rest dead for their antis
// to consume. The LP's executed sequence therefore never holds a key
// twice, and speculative model state never sees one logical event
// twice. p.mu must be held.
func (p *Proc) popPending() (message, bool) {
	for p.pending.len() > 0 {
		m := p.pending.pop()
		if p.dead.take(m.uid) {
			continue
		}
		for p.pending.len() > 0 && p.pending.h[0].key == m.key {
			x := p.pending.pop()
			if p.dead.take(x.uid) {
				continue
			}
			if x.uid > m.uid {
				m, x = x, m
			}
			p.dead.add(x.uid)
		}
		return m, true
	}
	return message{}, false
}

// peekPending returns the minimum live pending key, lazily discarding
// annihilated entries from the top. Incarnations share their key, so
// the answer does not depend on which of them survives. p.mu must be
// held.
func (p *Proc) peekPending() (Key, bool) {
	for p.pending.len() > 0 {
		if top := p.pending.top(); !p.dead.take(top.uid) {
			return top.key, true
		}
		p.pending.pop()
	}
	return Key{}, false
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

// rollbackLocked rewinds p to just before processed[i]: unwind the
// undo log newest-first down to that event's first record, restore
// its send sequence, re-queue the undone events' messages, and
// anti-message their sends. p.mu must be held; antis go out via the
// worker's delivery queue after the caller releases p.
func (w *Warp) rollbackLocked(p *Proc, ww *warpWorker, i int) {
	n := len(p.processed) - i
	w.rollbacks.Add(1)
	w.rolledBack.Add(int64(n))
	w.cRollbacks.Inc()
	w.cRolled.Add(int64(n))
	if w.tr != nil {
		w.tr.Instant(w.track, fmt.Sprintf("rollback %s depth=%d", p.name, n), w.tr.Now())
	}

	rec := p.processed[i]
	for j := len(p.undo) - 1; j >= int(rec.ulo); j-- {
		p.state.Undo(p.undo[j].slot, p.undo[j].old)
	}
	p.undo = p.undo[:rec.ulo]
	p.sendSeq = rec.seq0

	// Undo the rolled-back suffix: messages back to pending, sends
	// anti-messaged and cut from the send log.
	for _, r := range p.processed[i:] {
		p.pushPending(r.m)
	}
	for _, sm := range p.sendLog[rec.lo:] {
		sm.neg = true
		ww.queue = append(ww.queue, sm)
	}
	p.sendLog = p.sendLog[:rec.lo]
	p.processed = p.processed[:i]
}

// gvtPass computes a new GVT — a lower bound on the timestamp of any
// event that can still be executed or arrive — and fossil-collects
// history older than it.
//
// The pass quiesces the pool first: every other worker parks at the
// safe point in acquire (holding no LP, with every send it produced
// delivered), and the caller itself only runs between batches, so
// once the rendezvous completes nothing is executing and nothing is
// in flight — every live event sits in some LP's pending queue and
// the scan observes a consistent cut. Scanning a running pool
// instead (worker in-flight minima, then LP queues) is racy: a batch
// starting after its worker's minimum was read can execute an event
// from a not-yet-scanned LP, deliver its sends into an
// already-scanned one and reset the minimum, leaving a live message
// the pass never saw — and a GVT above it, which breaks fossil
// collection's "no rollback below GVT" contract.
//
// Passes are serialized by gvtMu. A caller finding one already in
// progress returns immediately and relies on that pass's result; it
// parks at its next acquire until the pass finishes.
func (w *Warp) gvtPass() {
	if !w.gvtMu.TryLock() {
		return
	}
	defer w.gvtMu.Unlock()

	w.qmu.Lock()
	w.gvtWant = true
	w.qcond.Broadcast() // flush queue-waiters into the safe park
	for w.gvtSafe < w.cfg.Workers-1 && !w.stopped {
		w.qcond.Wait()
	}
	stopped := w.stopped
	w.qmu.Unlock()
	defer func() {
		w.qmu.Lock()
		w.gvtWant = false
		w.qcond.Broadcast()
		w.qmu.Unlock()
	}()
	if stopped {
		return
	}
	w.gvtPasses.Add(1)

	min := math.Inf(1)
	for _, p := range w.lps {
		p.mu.Lock()
		if k, ok := p.peekPending(); ok && k.At < min {
			min = k.At
		}
		p.mu.Unlock()
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
		p.mu.Lock()
		cut := 0
		for cut < len(p.processed) && p.processed[cut].m.key.At < min {
			cut++
		}
		if cut > 0 {
			p.fossilCollect(cut)
		}
		p.mu.Unlock()
	}
}

// fossilCollect drops the first cut history records, compacting the
// history, the send log and the undo log in place so their backing
// arrays are reused rather than re-grown. p.mu must be held.
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
// queue, each LP's pending queue and the run queue. The message
// queues keep their bodies in a slab, the entries referring to slab
// slots that a free list recycles; the run queue's entries refer to
// LPs and leave the slab empty. Sifting moves only the compact
// entries, so a few-hundred-entry heap stays in L1, and each message
// body is written once at push and read once at pop. The heap is
// typed rather than built on the standard heap package, whose
// interface boxing allocates on every push and pop.
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
