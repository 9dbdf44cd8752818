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
	gen       int
	cur, next *grid.Grid

	sendW, sendE, sendN, sendS *fault.Link[message]
	recvW, recvE, recvN, recvS *fault.Link[message]

	reports  chan<- roundReport
	proceed  chan bool
	abort    chan struct{}
	inj      *fault.Injector
	linkWait time.Duration // halo-receive timeout; 0 = block forever
	durable  bool          // attach checkpoint rows even without injection

	msgs      int
	bytes     uint64
	redundant uint64
	owned     uint64
	tr        *obs.Tracer // nil when tracing is off
	track     obs.TrackID
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
	startRound, startTopples := 0, uint64(0)
	var dur *durable
	if cfg.ck != nil {
		if startRound, startTopples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, err
		}
		dur = &durable{ck: cfg.ck}
	}
	inj := fault.NewInjector(cfg.faults, cfg.obs)
	hb := cfg.heartbeat
	if hb <= 0 {
		hb = 2 * time.Second
	}
	var linkWait time.Duration
	if inj != nil {
		linkWait = hb / 4 // must detect a dropped halo before the coordinator gives up
	}

	// The scattered owned blocks double as the round-0 checkpoint set.
	ckpts := make([][][]uint32, n)
	for id, ge := range geoms {
		rows := make([][]uint32, ge.ownH)
		for y := range rows {
			rows[y] = append([]uint32(nil), g.Row(ge.top + y)[ge.left:ge.left+ge.ownW]...)
		}
		ckpts[id] = rows
	}
	if dur != nil {
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
	launch := func(genID, startRound int, ckpts [][][]uint32) *generation {
		gen := &generation{
			reports: make(chan roundReport, n),
			proceed: make([]chan bool, n),
			abort:   make(chan struct{}),
			wg:      &sync.WaitGroup{},
		}
		rs := make([]*rank2d, n)
		for id, ge := range geoms {
			r := &rank2d{
				geom: ge, id: id, gen: genID,
				reports: gen.reports,
				proceed: make(chan bool, 1),
				abort:   gen.abort,
				inj:     inj, linkWait: linkWait,
				durable: dur != nil,
			}
			gen.proceed[id] = r.proceed
			if tr := cfg.obs.Tracer; tr != nil {
				r.tr = tr
				r.track = tr.Track(proc, id, label(id))
			}
			r.cur = grid.New(ge.localH(), ge.localW())
			r.next = grid.New(ge.localH(), ge.localW())
			for y := 0; y < ge.ownH; y++ {
				copy(r.cur.Row(ge.gTop + y)[ge.gLeft:ge.gLeft+ge.ownW], ckpts[id][y])
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
				r.sendE, east.recvW = toEast, toEast
				east.sendW, r.recvE = toWest, toWest
			}
			if r.gBot > 0 {
				south := rs[id+C]
				toSouth := fault.NewLink[message](inj, id, id+C, 1)
				toNorth := fault.NewLink[message](inj, id+C, id, 1)
				r.sendS, south.recvN = toSouth, toSouth
				south.sendN, r.recvS = toNorth, toNorth
			}
		}
		gen.harvest = func(rep *Report) {
			for _, r := range rs {
				rep.Messages += r.msgs
				rep.BytesSent += r.bytes
				rep.RedundantCells += r.redundant
				rep.OwnedCells += r.owned
			}
		}
		for _, r := range rs {
			gen.wg.Add(1)
			go func(r *rank2d) {
				defer gen.wg.Done()
				r.run(startRound)
			}(r)
		}
		live = rs
		return gen
	}

	rep := Report{Ranks: n, GhostWidth: K}
	if err := coordinate(ctx, n, K, cfg.maxIters, inj, hb, launch, ckpts, &rep, dur, startRound, startTopples, cfg.obs); err != nil {
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
// synchronous steps over a shrinking valid band, a report (heartbeat +
// checkpoint) to the coordinator, and the coordinator's continue
// verdict. An injected crash makes the rank go silent mid-protocol —
// exactly the failure mode the coordinator's heartbeat timeout exists
// to catch.
func (r *rank2d) run(startRound int) {
	for round := startRound + 1; ; round++ {
		if r.inj.CrashAt(r.id, round) {
			return
		}
		// Fill (or refresh) ghost zones before the round's K steps.
		// The first exchange distributes the scattered initial state's
		// boundary cells; later ones refresh post-round state.
		exTS := r.tr.Now()
		if !r.exchange() {
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
		// With fault injection or durability on, the report carries a
		// checkpoint of the owned block; the coordinator installs it
		// once the whole round commits.
		var rows [][]uint32
		if r.inj != nil || r.durable {
			rows = make([][]uint32, r.ownH)
			for y := range rows {
				rows[y] = append([]uint32(nil), r.cur.Row(r.gTop + y)[r.gLeft:r.gLeft+r.ownW]...)
			}
		}
		select {
		case r.reports <- roundReport{gen: r.gen, id: r.id, round: round, changes: w.changes, rows: rows}:
		case <-r.abort:
			return
		}
		select {
		case cont := <-r.proceed:
			if !cont {
				return
			}
		case <-r.abort:
			return
		}
	}
}

// exchange performs the two-phase halo exchange: E/W columns over
// owned rows first, then N/S rows over the full local width (carrying
// the corners). Returns false on abort or peer death (a receive timed
// out with nothing to retransmit).
func (r *rank2d) exchange() bool {
	K := r.K
	// Phase 1: east/west columns, owned rows only, coalesced into one
	// flat ownH×K message per neighbor.
	colPayload := func(x0 int) message {
		buf := make([]uint32, 0, r.ownH*K)
		for y := 0; y < r.ownH; y++ {
			buf = append(buf, r.cur.Row(r.gTop + y)[x0:x0+K]...)
		}
		return message{buf: buf}
	}
	if r.sendW != nil {
		if !r.sendW.Send(colPayload(r.gLeft), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * r.ownH * 4)
	}
	if r.sendE != nil {
		if !r.sendE.Send(colPayload(r.gLeft+r.ownW-K), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * r.ownH * 4)
	}
	if r.recvW != nil {
		m, ok := r.recvW.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for y := 0; y < r.ownH; y++ {
			copy(r.cur.Row(r.gTop + y)[0:K], m.buf[y*K:(y+1)*K])
		}
	}
	if r.recvE != nil {
		m, ok := r.recvE.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for y := 0; y < r.ownH; y++ {
			copy(r.cur.Row(r.gTop + y)[r.gLeft+r.ownW:], m.buf[y*K:(y+1)*K])
		}
	}

	// Phase 2: north/south rows over the full local width, including
	// the halo columns just received — this is what fills corners.
	// One flat K×W message per neighbor.
	W := r.cur.W()
	rowPayload := func(y0 int) message {
		buf := make([]uint32, 0, K*W)
		for k := 0; k < K; k++ {
			buf = append(buf, r.cur.Row(y0+k)...)
		}
		return message{buf: buf}
	}
	if r.sendN != nil {
		if !r.sendN.Send(rowPayload(r.gTop), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * W * 4)
	}
	if r.sendS != nil {
		if !r.sendS.Send(rowPayload(r.gTop+r.ownH-K), r.abort) {
			return false
		}
		r.msgs++
		r.bytes += uint64(K * W * 4)
	}
	if r.recvN != nil {
		m, ok := r.recvN.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for k := 0; k < K; k++ {
			copy(r.cur.Row(k), m.buf[k*W:(k+1)*W])
		}
	}
	if r.recvS != nil {
		m, ok := r.recvS.Recv(r.linkWait, r.abort)
		if !ok {
			return false
		}
		for k := 0; k < K; k++ {
			copy(r.cur.Row(r.gTop+r.ownH+k), m.buf[k*W:(k+1)*W])
		}
	}
	return true
}
