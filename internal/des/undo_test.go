package des

import (
	"math"
	"testing"
)

// White-box tests for the undo log. A register LP (0) folds each
// event into one of two registers, saving the register twice per
// event, and sends one message per event to a sink LP (1) that never
// runs. Events are built by hand and driven through the register LP's
// partition (route and runPartition) on one goroutine, as in
// incarnation_test.go.

// regState is two registers; the undo slot is the register index.
type regState struct{ reg [2]uint64 }

func (s *regState) Undo(slot int32, old uint64) { s.reg[slot] = old }

// regStep is the register LP's handler body; regWant folds a whole
// executed sequence the same way without the kernel.
func regStep(reg *uint64, pl Payload, at float64) {
	*reg = mix(*reg, uint64(pl.B))
	*reg ^= math.Float64bits(at)
}

func regWant(evs ...message) [2]uint64 {
	var r [2]uint64
	for _, m := range evs {
		regStep(&r[m.payload.A], m.payload, m.key.At)
	}
	return r
}

type undoRig struct {
	t  *testing.T
	w  *Warp
	p  *Proc
	ww *warpWorker
}

func newUndoRig(t *testing.T) *undoRig {
	w := NewWarp(WarpConfig{Workers: 2})
	w.AddLP("reg", &regState{}, func(p *Proc, at float64, pl Payload) {
		st := p.State().(*regState)
		r := &st.reg[pl.A]
		// The same slot is saved twice in one event: undoing the
		// event must restore the value from before the first save.
		p.Save(pl.A, *r)
		*r = mix(*r, uint64(pl.B))
		p.Save(pl.A, *r)
		*r ^= math.Float64bits(at)
		p.Send(1, 1, Payload{B: pl.B})
	})
	w.AddLP("sink", nil, func(*Proc, float64, Payload) {})
	w.partition()
	return &undoRig{t: t, w: w, p: w.lps[0], ww: w.lps[0].ww}
}

// regEvent is event b for register reg at time at.
func regEvent(b int32, reg int32, at float64) message {
	return message{
		key: Key{At: at, Src: 1, Seq: uint64(b)}, dst: 0, uid: 1000 + uint64(b),
		payload: Payload{A: reg, B: b},
	}
}

func (r *undoRig) deliver(m message) { r.w.route(r.ww, m) }
func (r *undoRig) run()              { runPartition(r.w, r.ww) }

// check asserts that the LP's state, send sequence and logs are those
// of having executed evs in order, and the rollback count so far.
func (r *undoRig) check(wantRollbacks int64, evs ...message) {
	r.t.Helper()
	p := r.p
	if got, want := p.state.(*regState).reg, regWant(evs...); got != want {
		r.t.Fatalf("registers %x, want %x", got, want)
	}
	// Every event sends once, so the send sequence counts events.
	if got, want := p.sendSeq, uint64(len(evs)); got != want {
		r.t.Fatalf("sendSeq = %d, want %d", got, want)
	}
	if got, want := p.base+int64(len(p.processed)), int64(len(evs)); got != want {
		r.t.Fatalf("%d events in the history, want %d", got, want)
	}
	if len(p.undo) != 2*len(p.processed) || len(p.sendLog) != len(p.processed) {
		r.t.Fatalf("%d undo records and %d sends for %d events", len(p.undo), len(p.sendLog), len(p.processed))
	}
	if got := r.w.Stats().Rollbacks; got != wantRollbacks {
		r.t.Fatalf("rollbacks = %d, want %d", got, wantRollbacks)
	}
}

func TestUndoLogRollback(t *testing.T) {
	r := newUndoRig(t)
	e1, e2, e3, e4 := regEvent(1, 0, 1), regEvent(2, 1, 2), regEvent(3, 0, 3), regEvent(4, 0, 4)

	// A slot saved twice in one event, rolled back by a straggler.
	r.deliver(e1)
	r.run()
	r.check(0, e1)
	s0 := regEvent(5, 0, 0.5)
	r.deliver(s0)
	r.check(1)
	r.run()
	r.check(1, s0, e1)

	// A rollback into the middle of a run: one run executes e2-e4,
	// and a straggler between e2 and e3 undoes only e3 and e4.
	r.deliver(e2)
	r.deliver(e3)
	r.deliver(e4)
	r.run()
	r.check(1, s0, e1, e2, e3, e4)
	s1 := regEvent(6, 0, 2.5)
	r.deliver(s1)
	r.check(2, s0, e1, e2)
	r.run()
	r.check(2, s0, e1, e2, s1, e3, e4)
}

func TestUndoLogRollbackAfterFossilCollection(t *testing.T) {
	r := newUndoRig(t)
	e1, e2, e3, e4 := regEvent(1, 0, 1), regEvent(2, 1, 2), regEvent(3, 0, 3), regEvent(4, 1, 4)
	r.deliver(e1)
	r.deliver(e2)
	r.run()
	r.check(0, e1, e2)

	// GVT passes 2: fossil collection empties the history.
	r.p.fossilCollect(len(r.p.processed))
	if len(r.p.processed) != 0 || len(r.p.undo) != 0 || len(r.p.sendLog) != 0 {
		t.Fatalf("fossil collection left %d events, %d undo records, %d sends",
			len(r.p.processed), len(r.p.undo), len(r.p.sendLog))
	}
	r.check(0, e1, e2)

	// A rollback to history index 0: the straggler orders after the
	// collected events and before everything still in the history.
	r.deliver(e3)
	r.deliver(e4)
	r.run()
	r.check(0, e1, e2, e3, e4)
	s := regEvent(5, 1, 2.75)
	r.deliver(s)
	r.check(1, e1, e2)

	// With the history empty again, the LP's last event is e2: a
	// message between e2 and the straggler is not in its past.
	m := regEvent(6, 0, 2.5)
	r.deliver(m)
	r.check(1, e1, e2)
	r.run()
	r.check(1, e1, e2, m, s, e3, e4)
}
