package ghost

// recover.go is the fault-tolerance core of the in-process runtime
// (ghost2d.go): a coordinator that drives *generations* of rank
// goroutines under coordinated checkpoint/rollback. Every round,
// each live rank reports its owned-region change count (plus, when
// fault injection is on, an in-memory checkpoint of its owned cells);
// a round commits only when every rank reported, which makes the
// stored checkpoint set globally consistent. Peer death is detected
// by heartbeat: if a round's reports stop arriving within the
// heartbeat timeout, the coordinator declares the generation dead,
// aborts the surviving ranks, and relaunches all ranks from the last
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

// roundReport is one rank's per-round message to the coordinator. It
// doubles as the heartbeat (its arrival proves the rank is alive) and
// the checkpoint carrier (rows is a copy of the rank's owned cells
// after the round, present only when fault injection is on).
type roundReport struct {
	gen     int // generation that produced it (stale ones are discarded)
	id      int
	round   int
	changes int
	rows    [][]uint32
}

// generation is one launched cohort of rank goroutines plus the
// handles the coordinator needs to drive and, if necessary, kill it.
type generation struct {
	reports chan roundReport
	proceed []chan bool
	abort   chan struct{}
	wg      *sync.WaitGroup
	// harvest folds the generation's traffic/work stats into the
	// report; it must only run after wg.Wait.
	harvest func(*Report)
}

// coordinate runs the generation loop: collect a round's reports from
// all nRanks ranks, commit it (install checkpoints, accumulate
// topples), and broadcast continue/stop — or, on heartbeat timeout,
// abort the generation and relaunch from the last committed
// checkpoint set. launch builds a generation whose ranks resume after
// startRound with the given owned-cell checkpoints. ckpts must hold
// the scattered state of round startRound on entry (the initial state
// on a fresh run, the restored snapshot on a durable resume), and
// startTopples the topples already committed by those rounds. dur,
// when non-nil, persists committed rounds at its cadence. On a nil
// return the final generation has exited and its ranks hold the fixed
// point.
func coordinate(ctx context.Context, nRanks, K, maxIters int,
	inj *fault.Injector, hb time.Duration,
	launch func(genID, startRound int, ckpts [][][]uint32) *generation,
	ckpts [][][]uint32, rep *Report, dur *durable, startRound int, startTopples uint64,
	sink obs.Sink) error {

	committed := startRound
	topples := startTopples
	genID := 0
	for {
		genID++
		g := launch(genID, committed, ckpts)
		err := collectRounds(ctx, g, genID, nRanks, K, maxIters, inj, hb,
			&committed, &topples, ckpts, rep, dur, sink)
		if err == errGenerationDead {
			// Recovery: kill the survivors, then rebuild everything
			// from the checkpoint set of round `committed`.
			recTS := inj.Now()
			close(g.abort)
			g.wg.Wait()
			g.harvest(rep)
			rep.Recoveries++
			inj.NoteRecovery("ghost", recTS, inj.Now()-recTS,
				obs.Arg{Key: "round", Value: int64(committed + 1)},
				obs.Arg{Key: "generation", Value: int64(genID)})
			continue
		}
		if err != nil {
			close(g.abort)
			g.wg.Wait()
			g.harvest(rep)
			return err
		}
		g.wg.Wait()
		g.harvest(rep)
		rep.Iterations = committed * K
		rep.Topples = topples
		return nil
	}
}

// errGenerationDead is coordinate's internal signal that a heartbeat
// timed out and the current generation must be rolled back.
var errGenerationDead = fmt.Errorf("ghost: generation dead")

// collectRounds drives one generation until the run finishes (nil),
// the context is cancelled (ctx.Err()), or a heartbeat times out
// (errGenerationDead).
func collectRounds(ctx context.Context, g *generation, genID, nRanks, K, maxIters int,
	inj *fault.Injector, hb time.Duration,
	committed *int, topples *uint64, ckpts [][][]uint32, rep *Report, dur *durable,
	sink obs.Sink) error {

	for {
		round := *committed + 1
		rep.Exchanges++ // each round (including replays) opens with an exchange
		total := 0
		seen := make([]bool, nRanks)
		var rows [][][]uint32
		if inj != nil || dur != nil {
			rows = make([][][]uint32, nRanks)
		}
		var timeout <-chan time.Time
		var timer *time.Timer
		if inj != nil && hb > 0 {
			timer = time.NewTimer(hb)
			timeout = timer.C
		}
		need := nRanks
		for need > 0 {
			select {
			case r := <-g.reports:
				if r.gen != genID || r.round != round || seen[r.id] {
					continue // stale: a pre-abort straggler from a dead generation
				}
				seen[r.id] = true
				total += r.changes
				if rows != nil {
					rows[r.id] = r.rows
				}
				need--
			case <-timeout:
				// Some rank went silent for a whole heartbeat: dead.
				return errGenerationDead
			case <-ctx.Done():
				if timer != nil {
					timer.Stop()
				}
				return ctx.Err()
			}
		}
		if timer != nil {
			timer.Stop()
		}

		// All ranks reported: the round commits and its checkpoint set
		// is globally consistent.
		*committed = round
		*topples += uint64(total)
		if rows != nil {
			copy(ckpts, rows)
		}
		sink.Progress.Update("ghost",
			obs.F("round", float64(round)),
			obs.F("generation", float64(genID)),
			obs.F("changes", float64(total)),
			obs.F("topples", float64(*topples)),
			obs.F("recoveries", float64(rep.Recoveries)))
		cont := total != 0 && round*K < maxIters
		if cont {
			// Persist the committed round before releasing the ranks, so
			// the on-disk snapshot never runs ahead of the generation.
			// The finishing round is deliberately not saved (see ckpt.go).
			if err := dur.save(round, *topples); err != nil {
				return fmt.Errorf("ghost: checkpoint: %w", err)
			}
		}
		for _, ch := range g.proceed {
			ch <- cont
		}
		if !cont {
			return nil
		}
	}
}
