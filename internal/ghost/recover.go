package ghost

// recover.go is the commit and fault-tolerance core of the in-process
// runtime (ghost2d.go). Rounds commit at a barrier the ranks share:
// every round, each rank of the live *generation* arrives with its
// owned-region change count (and, when fault injection or durability
// is on, a checkpoint of its owned cells in its staging rows). The
// last rank to arrive commits the round before it wakes the others:
// it adds the change counts, installs the staged checkpoint set
// (globally consistent, since every rank contributed to it), persists
// it at the durable cadence, publishes progress and decides whether
// the run goes on.
//
// The coordinator is off that per-round path. It waits for one of
// three things: the generation ends, the context is cancelled, or the
// heartbeat watchdog fires. The watchdog exists only under fault
// injection; it is one timer that every commit re-arms, so it fires
// when no round commits within the heartbeat. The coordinator then
// declares the generation dead, aborts its barrier (waking the ranks
// blocked on it or on a link), and relaunches all ranks from the last
// committed checkpoint set — the classic coordinated-rollback
// recovery, which the automaton's determinism (the Abelian property)
// turns into exact replay: the recovered run reaches the same fixed
// point, with the same committed topple count, as the fault-free run.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// rounds is a run's committed state. Every generation's barrier
// shares it; the committing rank of the live generation writes it
// under that barrier's lock, and the coordinator touches it only
// between generations (the watchdog timer is safe for concurrent use).
type rounds struct {
	K, maxIters int
	committed   int          // last committed round
	topples     uint64       // topples committed by rounds 1..committed
	ckpts       [][][]uint32 // each rank's owned rows at round committed
	gen         int          // live generation, for progress
	recoveries  int
	dur         *durable // nil: durability off
	sink        obs.Sink
	// watchdog is the heartbeat timer, nil without fault injection.
	// Each commit stops it on entry and re-arms it for hb on the way
	// out, so a checkpoint save never counts against a round.
	watchdog *time.Timer
	hb       time.Duration
}

// barrier is one generation's round barrier. A rank of a dead
// generation holds only its own, aborted barrier, so it can never
// commit into a successor.
type barrier struct {
	mu             sync.Mutex
	wake           sync.Cond
	st             *rounds
	n, arrived     int
	changes        int          // summed change count of the open round
	stage          [][][]uint32 // each rank's checkpoint of the open round; nil when off
	cont           bool         // the last commit's verdict
	aborted, ended bool
	err            error         // checkpoint error of the commit that ended the run
	abort          chan struct{} // closed on abort: unblocks ranks waiting on a link
	end            chan struct{} // closed by the commit that ends the run
}

func newBarrier(st *rounds, n int, staged bool) *barrier {
	b := &barrier{st: st, n: n, abort: make(chan struct{}), end: make(chan struct{})}
	b.wake.L = &b.mu
	if staged {
		b.stage = make([][][]uint32, n)
		for id, rows := range st.ckpts {
			b.stage[id] = make([][]uint32, len(rows))
			for y := range rows {
				b.stage[id][y] = make([]uint32, len(rows[y]))
			}
		}
	}
	return b
}

// arrive adds one rank's round to the barrier and blocks until the
// round commits. It reports whether the rank goes on to the next
// round: false once the run has ended or the generation was aborted.
func (b *barrier) arrive(changes int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.aborted {
		return false
	}
	b.changes += changes
	if b.arrived++; b.arrived == b.n {
		b.commit()
		return b.cont
	}
	for round := b.st.committed + 1; b.st.committed < round && !b.aborted; {
		b.wake.Wait()
	}
	return b.cont && !b.aborted
}

// commit closes the open round; the caller holds b.mu and is its last
// arrival, so every other rank is waiting.
func (b *barrier) commit() {
	st := b.st
	if st.watchdog != nil {
		st.watchdog.Stop()
	}
	round := st.committed + 1
	st.committed = round
	st.topples += uint64(b.changes)
	// The staged rows become the committed set; the replaced rows are
	// the next round's staging.
	for id := range b.stage {
		st.ckpts[id], b.stage[id] = b.stage[id], st.ckpts[id]
	}
	st.sink.Progress.Update("ghost",
		obs.F("round", float64(round)),
		obs.F("generation", float64(st.gen)),
		obs.F("changes", float64(b.changes)),
		obs.F("topples", float64(st.topples)),
		obs.F("recoveries", float64(st.recoveries)))
	b.cont = b.changes != 0 && round*st.K < st.maxIters
	if b.cont {
		// Persist the committed round before releasing the ranks, so
		// the on-disk snapshot never runs ahead of the generation.
		// The finishing round is deliberately not saved (see ckpt.go).
		if err := st.dur.save(round, st.topples); err != nil {
			b.err, b.cont = fmt.Errorf("ghost: checkpoint: %w", err), false
		}
	}
	b.changes, b.arrived = 0, 0
	if b.cont {
		if st.watchdog != nil {
			st.watchdog.Reset(st.hb)
		}
	} else {
		b.ended = true
		close(b.end)
	}
	b.wake.Broadcast()
}

// kill aborts the generation unless its run has already ended: ranks
// blocked at the barrier or on a link wake and exit. It reports
// whether it aborted.
func (b *barrier) kill() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ended {
		return false
	}
	if !b.aborted {
		b.aborted = true
		close(b.abort)
		b.wake.Broadcast()
	}
	return true
}

// coordinate runs the generation loop. launch starts a generation's
// ranks on barrier b, resuming after st.committed from st.ckpts, and
// returns join, which waits for them and folds their traffic and work
// into the report. st must hold the state of round st.committed on
// entry (the initial state on a fresh run, the restored snapshot on a
// durable resume). On a nil return the final generation has exited
// and its ranks hold the fixed point.
func coordinate(ctx context.Context, st *rounds, nRanks int, inj *fault.Injector,
	launch func(b *barrier) (join func(*Report)), rep *Report) error {

	var fired <-chan time.Time
	if inj != nil {
		st.watchdog = time.NewTimer(st.hb)
		defer st.watchdog.Stop()
		fired = st.watchdog.C
	}
	start, cut := st.committed, 0
	for {
		st.gen++
		if w := st.watchdog; w != nil {
			if !w.Stop() {
				select { // drop a fire left over from the previous generation
				case <-w.C:
				default:
				}
			}
			w.Reset(st.hb)
		}
		b := newBarrier(st, nRanks, inj != nil || st.dur != nil)
		join := launch(b)
		var err error
		select {
		case <-b.end:
		case <-ctx.Done():
			if b.kill() {
				err = ctx.Err()
				cut++ // the round the cancellation cut short opened with an exchange
			}
		case <-fired:
			// No round committed within a whole heartbeat: some rank
			// went silent. Kill the survivors, then rebuild everything
			// from the checkpoint set of round st.committed.
			recTS := inj.Now()
			if !b.kill() {
				break // the run ended as the watchdog fired
			}
			join(rep)
			cut++ // the round that timed out opened with an exchange
			st.recoveries++
			rep.Recoveries = st.recoveries
			inj.NoteRecovery("ghost", recTS, inj.Now()-recTS,
				obs.Arg{Key: "round", Value: int64(st.committed + 1)},
				obs.Arg{Key: "generation", Value: int64(st.gen)})
			continue
		}
		join(rep)
		// Every committed round and every round cut short opened with
		// an exchange (replays included).
		rep.Exchanges = st.committed - start + cut
		if err == nil {
			err = b.err
		}
		if err != nil {
			return err
		}
		rep.Iterations = st.committed * st.K
		rep.Topples = st.topples
		return nil
	}
}
