package ghost

// ghost2d.go is the in-process runtime: one goroutine per block of the
// R×C process grid — the full Ghost Cell Pattern of Kjolstad & Snir's
// paper, which the assignment cites, with strips as the C=1 case.
// Blocks need corner data once the ghost width exceeds one (a cell K
// steps from a block corner depends on the diagonal neighbor's
// cells), which the classic two-phase exchange provides without
// diagonal messages: first east/west halo columns are exchanged over
// owned rows, then north/south halo rows are exchanged over the *full
// local width*, so the just-received E/W columns carry the diagonal
// neighbors' corners along. Fault tolerance (rank crashes, message
// faults) is coordinated checkpoint rollback; see recover.go.

import (
	"context"
	"fmt"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/grid"
	"repro/internal/obs"
)

// rank2d is one simulated process. Ranks are rebuilt from checkpoints
// on every recovery generation, so all fields are generation-local.
type rank2d struct {
	geom
	id        int // linear rank index pr*C+pc
	cur, next *grid.Grid

	sendW, sendE, sendN, sendS halo
	recvW, recvE, recvN, recvS *fault.Link[message]

	bar      *barrier
	inj      *fault.Injector
	linkWait time.Duration // halo-receive timeout; 0 = block forever

	msgs      int
	bytes     uint64
	redundant uint64
	owned     uint64
	tr        *obs.Tracer // nil when tracing is off
	track     obs.TrackID
}

// halo is one outgoing link and its two payload buffers, filled
// alternately by round parity: the buffer a round sends (which the
// link retains for retransmission) is not refilled until two rounds
// later, so a receiver one round behind still reads the right cells.
type halo struct {
	link *fault.Link[message]
	bufs [2][]uint32
}

// run2d executes the decomposition under the shared recovery
// coordinator.
func run2d(ctx context.Context, g *grid.Grid, cfg config) (Report, error) {
	geoms, err := decompose(g, &cfg)
	if err != nil {
		return Report{}, err
	}
	R, C, K, n := cfg.procRows, cfg.procCols, cfg.width, len(geoms)

	before := g.Sum()
	// Durable resume happens before carving, so the blocks below are
	// cut from the restored committed state rather than the initial
	// one. `before` stays the caller's initial sum: re-running from the
	// same initial grid therefore reports the same Absorbed total as an
	// uninterrupted run.
	st := &rounds{K: K, maxIters: cfg.maxIters, sink: cfg.obs}
	if cfg.ck != nil {
		if st.committed, st.topples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, err
		}
		st.dur = &durable{ck: cfg.ck}
	}
	inj := fault.NewInjector(cfg.faults, cfg.obs)
	if st.hb = cfg.heartbeat; st.hb <= 0 {
		st.hb = 2 * time.Second
	}
	var linkWait time.Duration
	if inj != nil {
		linkWait = st.hb / 4 // must detect a dropped halo before the coordinator gives up
	}

	// The scattered owned blocks double as the starting checkpoint set.
	ckpts := make([][][]uint32, n)
	for id, ge := range geoms {
		rows := make([][]uint32, ge.ownH)
		for y := range rows {
			rows[y] = append([]uint32(nil), g.Row(ge.top + y)[ge.left:ge.left+ge.ownW]...)
		}
		ckpts[id] = rows
	}
	st.ckpts = ckpts
	if dur := st.dur; dur != nil {
		// Reassemble global rows from the committed blocks: each global
		// row crosses the C blocks of one process-grid row.
		h, w := g.H(), g.W()
		dur.encode = func(round int, topples uint64) []byte {
			var e ckpt.Enc
			encodeGhostHeader(&e, round, topples, h, w)
			for pr := 0; pr < R; pr++ {
				for y := range ckpts[pr*C] {
					for pc := 0; pc < C; pc++ {
						for _, v := range ckpts[pr*C+pc][y] {
							e.U32(v)
						}
					}
				}
			}
			return e.Bytes()
		}
	}

	// Strips keep the 1-D track names; blocks are labelled by position.
	proc, label := "ghost", func(id int) string { return fmt.Sprintf("rank %d", id) }
	if C > 1 {
		proc, label = "ghost2d", func(id int) string { return fmt.Sprintf("rank (%d,%d)", id/C, id%C) }
	}

	var live []*rank2d
	launch := func(b *barrier) func(*Report) {
		start := st.committed
		rs := make([]*rank2d, n)
		for id, ge := range geoms {
			r := &rank2d{geom: ge, id: id, bar: b, inj: inj, linkWait: linkWait}
			if tr := cfg.obs.Tracer; tr != nil {
				r.tr = tr
				r.track = tr.Track(proc, id, label(id))
			}
			r.cur = grid.New(ge.localH(), ge.localW())
			r.next = grid.New(ge.localH(), ge.localW())
			for y := 0; y < ge.ownH; y++ {
				copy(r.cur.Row(ge.gTop + y)[ge.gLeft:ge.gLeft+ge.ownW], st.ckpts[id][y])
			}
			rs[id] = r
		}
		// Wire neighbor links (endpoints are linear rank indices, so
		// message-fault decisions stay keyed to stable identities).
		for id, r := range rs {
			if r.gRh > 0 {
				east := rs[id+1]
				toEast := fault.NewLink[message](inj, id, id+1, 1)
				toWest := fault.NewLink[message](inj, id+1, id, 1)
				r.sendE.link, east.recvW = toEast, toEast
				east.sendW.link, r.recvE = toWest, toWest
			}
			if r.gBot > 0 {
				south := rs[id+C]
				toSouth := fault.NewLink[message](inj, id, id+C, 1)
				toNorth := fault.NewLink[message](inj, id+C, id, 1)
				r.sendS.link, south.recvN = toSouth, toSouth
				south.sendN.link, r.recvS = toNorth, toNorth
			}
		}
		var wg sync.WaitGroup
		for _, r := range rs {
			wg.Add(1)
			go func(r *rank2d) {
				defer wg.Done()
				r.run(start)
			}(r)
		}
		live = rs
		return func(rep *Report) {
			wg.Wait()
			for _, r := range rs {
				rep.Messages += r.msgs
				rep.BytesSent += r.bytes
				rep.RedundantCells += r.redundant
				rep.OwnedCells += r.owned
			}
		}
	}

	rep := Report{Ranks: n, GhostWidth: K}
	if err := coordinate(ctx, st, n, inj, launch, &rep); err != nil {
		return rep, err
	}

	// Gather: copy owned blocks back into the global grid.
	for _, r := range live {
		for y := 0; y < r.ownH; y++ {
			copy(g.Row(r.top + y)[r.left:r.left+r.ownW],
				r.cur.Row(r.gTop + y)[r.gLeft:r.gLeft+r.ownW])
		}
	}
	g.ClearHalo()
	rep.Absorbed = before - g.Sum()
	rep.FaultSchedule = inj.Schedule()
	rep.publish(cfg.obs.Metrics)
	return rep, nil
}

// run executes one simulated rank: rounds of a halo exchange and K
// synchronous steps over a shrinking valid band, then an arrival at
// the generation's barrier (heartbeat, change count and, when staging
// is on, a checkpoint of the owned block), which returns once the
// round has committed. An injected crash makes the rank go silent
// mid-protocol — exactly the failure mode the coordinator's heartbeat
// watchdog exists to catch.
func (r *rank2d) run(startRound int) {
	for round := startRound + 1; ; round++ {
		if r.inj.CrashAt(r.id, round) {
			return
		}
		// Fill (or refresh) ghost zones before the round's K steps.
		// The first exchange distributes the scattered initial state's
		// boundary cells; later ones refresh post-round state.
		exTS := r.tr.Now()
		if !r.exchange(round) {
			return // aborted, or a peer died and the link drained
		}
		if r.tr != nil {
			r.tr.Span(r.track, "exchange", exTS, r.tr.Now()-exTS,
				obs.Arg{Key: "K", Value: int64(r.K)})
		}
		compTS := r.tr.Now()
		var w roundWork
		w, r.cur, r.next = computeBlock(r.geom, r.cur, r.next)
		r.owned += w.owned
		r.redundant += w.redundant
		if r.tr != nil {
			r.tr.Span(r.track, "compute", compTS, r.tr.Now()-compTS,
				obs.Arg{Key: "changes", Value: int64(w.changes)})
		}
		if stage := r.bar.stage; stage != nil {
			for y, row := range stage[r.id] {
				copy(row, r.cur.Row(r.gTop + y)[r.gLeft:r.gLeft+r.ownW])
			}
		}
		if !r.bar.arrive(w.changes) {
			return
		}
	}
}

// exchange performs the two-phase halo exchange: E/W columns over
// owned rows first, then N/S rows over the full local width (carrying
// the corners). Each halo is one flat message per neighbour. Returns
// false on abort or peer death (a receive timed out with nothing to
// retransmit).
func (r *rank2d) exchange(round int) bool {
	K, W, top, left := r.K, r.cur.W(), r.gTop, r.gLeft
	return r.send(&r.sendW, round, top, r.ownH, left, K) &&
		r.send(&r.sendE, round, top, r.ownH, left+r.ownW-K, K) &&
		r.recv(r.recvW, top, r.ownH, 0, K) &&
		r.recv(r.recvE, top, r.ownH, left+r.ownW, K) &&
		// Phase 2 covers the halo columns just received: this is what
		// fills the corners.
		r.send(&r.sendN, round, top, K, 0, W) &&
		r.send(&r.sendS, round, top+r.ownH-K, K, 0, W) &&
		r.recv(r.recvN, 0, K, 0, W) &&
		r.recv(r.recvS, top+r.ownH, K, 0, W)
}

// send fills h's buffer for the round's parity with the n segments of
// w cells starting at column x0 of rows y0..y0+n-1, and ships it. A
// side without a neighbour sends nothing.
func (r *rank2d) send(h *halo, round, y0, n, x0, w int) bool {
	if h.link == nil {
		return true
	}
	buf := h.bufs[round&1][:0]
	for y := y0; y < y0+n; y++ {
		buf = append(buf, r.cur.Row(y)[x0:x0+w]...)
	}
	h.bufs[round&1] = buf
	if !h.link.Send(message{buf: buf}, r.bar.abort) {
		return false
	}
	r.msgs++
	r.bytes += uint64(len(buf) * 4)
	return true
}

// recv copies the next halo from l into the n segments of w cells
// starting at column x0 of rows y0..y0+n-1.
func (r *rank2d) recv(l *fault.Link[message], y0, n, x0, w int) bool {
	if l == nil {
		return true
	}
	m, ok := l.Recv(r.linkWait, r.bar.abort)
	if !ok {
		return false
	}
	for i := 0; i < n; i++ {
		copy(r.cur.Row(y0 + i)[x0:x0+w], m.buf[i*w:(i+1)*w])
	}
	return true
}
