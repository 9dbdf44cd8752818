package des

import (
	"fmt"
	"testing"
)

// White-box tests for stale incarnations. When an LP rolls back, it
// re-issues its undone sends under the same canonical key with fresh
// uids, and anti-messages the old ones. The old (stale) positive, its
// anti and the fresh positive can reach the destination in any order,
// before or after either positive has executed. Each case below builds
// one such interleaving by hand on a two-LP Warp, driving the
// destination's partition (route and runPartition) directly on one
// goroutine, and checks that the destination
// executes the logical event exactly once, as the fresh incarnation,
// and ends with no pending entries and no annihilation marks left.

// histState is the destination's model state: the payloads it has
// executed, in order. Rollback restores it with the rest of the state,
// so it is always the LP's current speculative history. seen only
// grows by append, so its one undo slot is its length.
type histState struct{ seen []Payload }

func (s *histState) Undo(_ int32, old uint64) { s.seen = s.seen[:old] }

// incarnationRig is a Warp with a destination LP (0) that records its
// history and a source LP (1) that never runs; messages from the
// source are built by hand.
type incarnationRig struct {
	t   *testing.T
	w   *Warp
	dst *Proc
	ww  *warpWorker
}

func newIncarnationRig(t *testing.T) *incarnationRig {
	w := NewWarp(WarpConfig{Workers: 2})
	w.AddLP("dst", &histState{}, func(p *Proc, at float64, pl Payload) {
		st := p.State().(*histState)
		p.Save(0, uint64(len(st.seen)))
		st.seen = append(st.seen, pl)
	})
	w.AddLP("src", nil, func(*Proc, float64, Payload) {})
	w.partition()
	return &incarnationRig{t: t, w: w, dst: w.lps[0], ww: w.lps[0].ww}
}

// The logical events: an earlier and a later event around the one
// that has two incarnations. Payload.B names the logical event and
// Payload.A the incarnation (1 stale, 2 fresh).
var (
	incKey   = Key{At: 1, Src: 1, Seq: 1}
	incEarly = message{key: Key{At: 0.5, Src: 1, Seq: 0}, dst: 0, uid: 5, payload: Payload{A: 1, B: 6}}
	incStale = message{key: incKey, dst: 0, uid: 10, payload: Payload{A: 1, B: 7}}
	incFresh = message{key: incKey, dst: 0, uid: 20, payload: Payload{A: 2, B: 7}}
	incLate  = message{key: Key{At: 2, Src: 1, Seq: 2}, dst: 0, uid: 30, payload: Payload{A: 1, B: 8}}
	incAnti  = func() message { m := incStale; m.neg = true; return m }()
)

func (r *incarnationRig) deliver(m message) {
	r.w.route(r.ww, m)
	r.checkHistory()
}

func (r *incarnationRig) run() {
	runPartition(r.w, r.ww)
	r.checkHistory()
}

// runPartition executes a partition's queue up to its first idle or
// throttled answer on the calling goroutine, as the worker loop does
// between inbox drains.
func runPartition(w *Warp, ww *warpWorker) {
	for {
		m, why := w.next(ww)
		if why != running {
			return
		}
		w.exec(ww, m)
	}
}

// checkHistory asserts that no logical event appears twice in the
// destination's speculative history or its processed records.
func (r *incarnationRig) checkHistory() {
	r.t.Helper()
	seen := map[int32]bool{}
	for _, pl := range r.dst.state.(*histState).seen {
		if seen[pl.B] {
			r.t.Fatalf("event %d executed twice: history %v", pl.B, r.dst.state.(*histState).seen)
		}
		seen[pl.B] = true
	}
	for i := 1; i < len(r.dst.processed); i++ {
		if !r.dst.processed[i-1].m.key.Before(r.dst.processed[i].m.key) {
			r.t.Fatalf("processed keys not strictly ascending at %d: %+v", i, r.dst.processed)
		}
	}
}

// checkFinal asserts the drained outcome: the three logical events in
// order, the middle one as the fresh incarnation, and no leftovers.
func (r *incarnationRig) checkFinal(wantRollbacks int64) {
	r.t.Helper()
	if got, want := fmt.Sprint(r.dst.state.(*histState).seen),
		fmt.Sprint([]Payload{incEarly.payload, incFresh.payload, incLate.payload}); got != want {
		r.t.Fatalf("history %s, want %s", got, want)
	}
	var uids []uint64
	for _, rec := range r.dst.processed {
		uids = append(uids, rec.m.uid)
	}
	if got, want := fmt.Sprint(uids), fmt.Sprint([]uint64{incEarly.uid, incFresh.uid, incLate.uid}); got != want {
		r.t.Fatalf("processed uids %s, want %s", got, want)
	}
	if got := r.w.Stats().Rollbacks; got != wantRollbacks {
		r.t.Fatalf("rollbacks = %d, want %d", got, wantRollbacks)
	}
	assertDrained(r.t, r.w)
}

// assertDrained checks that every partition of a drained Warp has an
// empty queue and inbox, and every LP no annihilation marks: every
// stale incarnation met its anti-message.
func assertDrained(t testing.TB, w *Warp) {
	t.Helper()
	for _, ww := range w.workers {
		if ww.q.len() != 0 || len(ww.inbox) != 0 {
			t.Fatalf("partition %d not drained: %d queued, %d in the inbox", ww.idx, ww.q.len(), len(ww.inbox))
		}
	}
	for _, p := range w.lps {
		if len(p.dead.m) != 0 {
			t.Fatalf("LP %s not drained: %d dead marks", p.name, len(p.dead.m))
		}
	}
}

func TestIncarnationsBothPending(t *testing.T) {
	for _, order := range [][2]message{{incStale, incFresh}, {incFresh, incStale}} {
		r := newIncarnationRig(t)
		r.deliver(incEarly)
		r.deliver(order[0])
		r.deliver(order[1])
		r.deliver(incLate)
		r.run()
		r.deliver(incAnti)
		r.run()
		r.checkFinal(0)
	}
}

func TestIncarnationsAntiFirst(t *testing.T) {
	// The anti overtakes its positive on the way in.
	r := newIncarnationRig(t)
	r.deliver(incEarly)
	r.deliver(incAnti)
	r.deliver(incStale)
	r.deliver(incFresh)
	r.deliver(incLate)
	r.run()
	r.checkFinal(0)

	// The anti lands while both positives are pending; either may sit
	// on top of the heap.
	for _, order := range [][2]message{{incStale, incFresh}, {incFresh, incStale}} {
		r = newIncarnationRig(t)
		r.deliver(incEarly)
		r.deliver(order[0])
		r.deliver(order[1])
		r.deliver(incAnti)
		r.deliver(incLate)
		r.run()
		r.checkFinal(0)
	}
}

func TestIncarnationsStaleExecutedFirst(t *testing.T) {
	// The fresh positive arrives before the stale one's anti: it rolls
	// the destination back, and the re-queued stale copy is resolved
	// at pop.
	r := newIncarnationRig(t)
	r.deliver(incEarly)
	r.deliver(incStale)
	r.deliver(incLate)
	r.run()
	r.deliver(incFresh)
	r.run()
	r.deliver(incAnti)
	r.run()
	r.checkFinal(1)

	// The anti arrives first and rolls the stale execution back
	// itself; the fresh positive then arrives in the past of the
	// re-executed later event and rolls back again.
	r = newIncarnationRig(t)
	r.deliver(incEarly)
	r.deliver(incStale)
	r.deliver(incLate)
	r.run()
	r.deliver(incAnti)
	r.run()
	r.deliver(incFresh)
	r.run()
	r.checkFinal(2)
}

func TestIncarnationsFreshExecutedFirst(t *testing.T) {
	// The stale positive arrives after the fresh one executed: it is
	// dropped on arrival, and its anti consumes the mark.
	for _, antiFirst := range []bool{false, true} {
		r := newIncarnationRig(t)
		r.deliver(incEarly)
		r.deliver(incFresh)
		r.deliver(incLate)
		r.run()
		if antiFirst {
			r.deliver(incAnti)
			r.deliver(incStale)
		} else {
			r.deliver(incStale)
			r.deliver(incAnti)
		}
		r.run()
		r.checkFinal(0)
	}
}
