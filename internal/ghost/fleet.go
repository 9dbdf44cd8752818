package ghost

// fleet.go runs the distributed sandpile over real process boundaries:
// the goroutine ranks of ghost2d.go become fleet workers connected
// through internal/net, so a SIGKILL is a real lost peer detected by a
// heartbeat lease rather than a simulated crash.
//
// Workers keep their blocks resident, so a round moves only what the
// message-passing runtime moves. A worker is seeded once per
// generation with its whole block plus ghost bands, carved from a
// committed snapshot. After that a round message carries only the
// K-deep ghost bands, and the report carries the round's counts plus
// the owned cells within K of each interior side. The topology stays a
// star: the coordinator writes those edge strips into its global grid
// at commit and carves the next round's bands from it, so per-round
// traffic is O(perimeter×K), not O(block).
//
// Between snapshots only the edge strips of the global grid are
// current. Every snapEvery rounds, at every due durable checkpoint,
// and at the end, the coordinator pulls each owned block and keeps a
// copy of the full grid: the snapshot. A rank loses its state when its
// worker dies, rejoins, is declared lost, or answers a step with "no
// state". If no round has committed since the snapshot, the rank is
// re-seeded from the global grid; otherwise every rank rolls back to
// the snapshot under a new generation. Every message and reply carries
// (generation, round), so replies that outlive a re-seed or a rollback
// are recognised and dropped. The automaton's determinism makes replay
// exact. A lost rank's block is served by the coordinator itself, with
// the same block type the workers use: the run degrades to fewer
// processes, never to a wrong answer.

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// GhostProto names the fleet wire protocol version.
const GhostProto = "ghost/2"

// snapEvery is the snapshot cadence in rounds: how much work a lost
// rank can cost, against one full-block pull per rank per snapshot.
const snapEvery = 64

// Fleet application frame types. Every payload opens with a 12-byte
// header: the generation (u32) and the round (u64).
const (
	// msgSeed (coordinator -> worker): install a resident block and
	// compute the header's round. After the header: the geometry
	// (K, ownH, ownW, gTop, gBot, gLeft, gRh as u32), then the whole
	// local window — owned block and ghost bands, corners included —
	// row-major, as committed before the round.
	msgSeed uint8 = pnet.FrameApp + iota
	// msgStep (coordinator -> worker): compute the header's round of a
	// resident block. After the header: the top and bottom bands over
	// the full local width, then the left and right bands over owned
	// rows.
	msgStep
	// msgPull (coordinator -> worker): send the owned block as of the
	// header's round. Header only.
	msgPull
	// msgReport (worker -> coordinator): the round's change and
	// redundant-cell counts (u64 each), then the edge strips — the owned
	// cells within K of the top, bottom, left and right interior sides.
	msgReport
	// msgBlock (worker -> coordinator): the owned block, answering a
	// pull.
	msgBlock
	// msgNoState (worker -> coordinator): the worker holds no block at
	// the (generation, round) a step or pull continues — typically a
	// fresh incarnation the coordinator has not yet seen join. Header
	// only.
	msgNoState
	// msgStop (coordinator -> worker): the run is over; exit cleanly.
	msgStop
)

const (
	headerLen = 4 + 8
	geomLen   = 7 * 4
	countsLen = 8 + 8
)

// errMalformed is returned for a fleet payload whose length or
// geometry does not match its frame type.
var errMalformed = errors.New("ghost: malformed fleet message")

// rect is a rectangle of rank-local cells: rows [y0,y1), columns
// [x0,x1).
type rect struct{ y0, y1, x0, x1 int }

func (r rect) cells() int { return (r.y1 - r.y0) * (r.x1 - r.x0) }

func cellsOf(rs []rect) int {
	n := 0
	for _, r := range rs {
		n += r.cells()
	}
	return n
}

func (ge geom) window() rect { return rect{0, ge.localH(), 0, ge.localW()} }

func (ge geom) owned() rect {
	return rect{ge.gTop, ge.gTop + ge.ownH, ge.gLeft, ge.gLeft + ge.ownW}
}

// bands are the ghost zones in wire order: top and bottom over the full
// local width (they carry the corners), then left and right over owned
// rows. Sides without a neighbour are empty.
func (ge geom) bands() []rect {
	o := ge.owned()
	return []rect{
		{0, o.y0, 0, ge.localW()},
		{o.y1, ge.localH(), 0, ge.localW()},
		{o.y0, o.y1, 0, o.x0},
		{o.y0, o.y1, o.x1, ge.localW()},
	}
}

// edges are the owned cells a neighbour needs for its next bands, in
// wire order: K rows or columns inside each interior side.
func (ge geom) edges() []rect {
	o, K := ge.owned(), ge.K
	var rs []rect
	if ge.gTop > 0 {
		rs = append(rs, rect{o.y0, o.y0 + K, o.x0, o.x1})
	}
	if ge.gBot > 0 {
		rs = append(rs, rect{o.y1 - K, o.y1, o.x0, o.x1})
	}
	if ge.gLeft > 0 {
		rs = append(rs, rect{o.y0, o.y1, o.x0, o.x0 + K})
	}
	if ge.gRh > 0 {
		rs = append(rs, rect{o.y0, o.y1, o.x1 - K, o.x1})
	}
	return rs
}

// origin maps rank-local cells to global ones: local (y, x) is global
// (y+dy, x+dx).
func (ge geom) origin() (dy, dx int) { return ge.top - ge.gTop, ge.left - ge.gLeft }

// appendCells appends the cells of rs in g, shifted by (dy, dx),
// row-major.
func appendCells(b []byte, g *grid.Grid, rs []rect, dy, dx int) []byte {
	for _, r := range rs {
		for y := r.y0; y < r.y1; y++ {
			for _, v := range g.Row(y + dy)[r.x0+dx : r.x1+dx] {
				b = binary.LittleEndian.AppendUint32(b, v)
			}
		}
	}
	return b
}

// readCells fills the cells of rs in g, shifted by (dy, dx), from p,
// which must hold exactly cellsOf(rs) cells.
func readCells(p []byte, g *grid.Grid, rs []rect, dy, dx int) {
	for _, r := range rs {
		for y := r.y0; y < r.y1; y++ {
			row := g.Row(y + dy)[r.x0+dx : r.x1+dx]
			for x := range row {
				row[x] = binary.LittleEndian.Uint32(p)
				p = p[4:]
			}
		}
	}
}

func appendHeader(b []byte, gen, round int) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(gen))
	return binary.LittleEndian.AppendUint64(b, uint64(round))
}

// readHeader splits a payload into its (generation, round) header and
// body.
func readHeader(p []byte) (gen, round int, body []byte, err error) {
	if len(p) < headerLen {
		return 0, 0, nil, fmt.Errorf("%w: %d-byte payload has no header", errMalformed, len(p))
	}
	return int(binary.LittleEndian.Uint32(p)), int(binary.LittleEndian.Uint64(p[4:])), p[headerLen:], nil
}

func headerMsg(typ uint8, gen, round int) pnet.Msg {
	return pnet.Msg{Type: typ, Payload: appendHeader(make([]byte, 0, headerLen), gen, round)}
}

// readGeom decodes a seed body's geometry and checks it — and the
// window it implies — against the body length before anything is
// allocated.
func readGeom(body []byte) (geom, []byte, error) {
	if len(body) < geomLen {
		return geom{}, nil, fmt.Errorf("%w: seed too short for its geometry", errMalformed)
	}
	var v [7]uint64
	for i := range v {
		v[i] = uint64(binary.LittleEndian.Uint32(body[4*i:]))
	}
	K, ownH, ownW, gTop, gBot, gLeft, gRh := v[0], v[1], v[2], v[3], v[4], v[5], v[6]
	cells := body[geomLen:]
	n := uint64(len(cells))
	side := func(g uint64) bool { return g == 0 || g == K }
	localH, localW := gTop+ownH+gBot, gLeft+ownW+gRh
	ok := K >= 1 && ownH >= 1 && ownW >= 1 &&
		side(gTop) && side(gBot) && side(gLeft) && side(gRh) &&
		(gTop+gBot == 0 || ownH >= K) && (gLeft+gRh == 0 || ownW >= K) &&
		localH <= n && localW <= n && 4*localH*localW == n
	if !ok {
		return geom{}, nil, fmt.Errorf("%w: seed geometry K=%d own=%dx%d bands=%d/%d/%d/%d does not fit %d cell bytes",
			errMalformed, K, ownH, ownW, gTop, gBot, gLeft, gRh, n)
	}
	return geom{K: int(K), ownH: int(ownH), ownW: int(ownW),
		gTop: int(gTop), gBot: int(gBot), gLeft: int(gLeft), gRh: int(gRh)}, cells, nil
}

func appendGeom(b []byte, ge geom) []byte {
	for _, v := range []int{ge.K, ge.ownH, ge.ownW, ge.gTop, ge.gBot, ge.gLeft, ge.gRh} {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

// block is one rank's resident state: its geometry, the generation it
// was seeded in, the last round it computed, and the rank-local grid
// with its scratch twin. Fleet workers hold one; the coordinator holds
// one per lost rank.
type block struct {
	geom
	gen, round int
	cur, next  *grid.Grid // nil until seeded
}

// serveRound applies one coordinator message to the block and returns
// the reply. A seed always installs; a step or pull that does not
// continue the block's (generation, round) is answered msgNoState. A
// malformed payload returns an errMalformed error and leaves the block
// as it was.
func (b *block) serveRound(m pnet.Msg) (pnet.Msg, error) {
	gen, round, body, err := readHeader(m.Payload)
	if err != nil {
		return pnet.Msg{}, err
	}
	switch m.Type {
	case msgSeed:
		ge, cells, err := readGeom(body)
		if err != nil {
			return pnet.Msg{}, err
		}
		if b.cur == nil || b.localH() != ge.localH() || b.localW() != ge.localW() {
			b.cur, b.next = grid.New(ge.localH(), ge.localW()), grid.New(ge.localH(), ge.localW())
		}
		b.geom, b.gen, b.round = ge, gen, round-1
		readCells(cells, b.cur, []rect{ge.window()}, 0, 0)
		return b.compute(), nil
	case msgStep:
		if b.cur == nil || b.gen != gen || b.round != round-1 {
			return headerMsg(msgNoState, gen, round), nil
		}
		bands := b.bands()
		if len(body) != 4*cellsOf(bands) {
			return pnet.Msg{}, fmt.Errorf("%w: step carries %d band bytes, want %d",
				errMalformed, len(body), 4*cellsOf(bands))
		}
		readCells(body, b.cur, bands, 0, 0)
		return b.compute(), nil
	case msgPull:
		if len(body) != 0 {
			return pnet.Msg{}, fmt.Errorf("%w: pull carries a %d-byte body", errMalformed, len(body))
		}
		if b.cur == nil || b.gen != gen || b.round != round {
			return headerMsg(msgNoState, gen, round), nil
		}
		own := []rect{b.owned()}
		p := appendHeader(make([]byte, 0, headerLen+4*b.ownH*b.ownW), gen, round)
		return pnet.Msg{Type: msgBlock, Payload: appendCells(p, b.cur, own, 0, 0)}, nil
	default:
		return pnet.Msg{}, fmt.Errorf("ghost: unexpected frame type %d", m.Type)
	}
}

// compute runs the next round's K steps over the installed window and
// encodes the report.
func (b *block) compute() pnet.Msg {
	var w roundWork
	w, b.cur, b.next = computeBlock(b.geom, b.cur, b.next)
	b.round++
	edges := b.edges()
	p := appendHeader(make([]byte, 0, headerLen+countsLen+4*cellsOf(edges)), b.gen, b.round)
	p = binary.LittleEndian.AppendUint64(p, uint64(w.changes))
	p = binary.LittleEndian.AppendUint64(p, w.redundant)
	return pnet.Msg{Type: msgReport, Payload: appendCells(p, b.cur, edges, 0, 0)}
}

// FleetWorker joins the fleet at cfg.Join and serves ghost rounds
// until the coordinator sends stop. It is the -worker entry point for
// fleet processes; cfg.Proto defaults to GhostProto. The resident
// block outlives reconnections; the coordinator decides whether it is
// still current.
func FleetWorker(ctx context.Context, cfg pnet.WorkerConfig) error {
	if cfg.Proto == "" {
		cfg.Proto = GhostProto
	}
	var b block
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		if m.Type == msgStop {
			return pnet.ErrWorkerDone
		}
		reply, err := b.serveRound(m)
		if err != nil {
			return err
		}
		return send(reply)
	})
}

// fleetRank is the coordinator's view of one rank.
type fleetRank struct {
	held     bool // was seeded and has not lost that block since
	resident bool // holds a block of the current generation at the phase's base round
	seeded   bool // seeded in the current phase: an earlier msgNoState is stale
	done     bool // answered the current phase
	work     roundWork
	edges    []byte // the report's edge strips, installed at commit
	local    *block // non-nil once the rank is lost: the coordinator serves it
}

// fleetRun is the coordinator side of one fleet run. g is the committed
// global grid: complete at the snapshot, and between snapshots current
// only in the edge strips every round writes.
type fleetRun struct {
	cfg   config
	co    *pnet.Coordinator
	g     *grid.Grid
	geoms []geom
	ranks []fleetRank
	rep   Report

	gen                  int
	committed, snapRound int
	topples, snapTopples uint64
	snap                 *grid.Grid // g at snapRound

	out   []byte       // send scratch; Conn.Send does not retain payloads
	local []pnet.Event // replies of coordinator-served ranks, not yet handled
}

// runFleet drives the decomposition over a worker fleet. The caller's
// grid g holds the committed state; on return it holds the fixed
// point, exactly as the in-process runtime leaves it.
func runFleet(ctx context.Context, g *grid.Grid, cfg config) (Report, error) {
	if cfg.faults != nil {
		return Report{}, fmt.Errorf("ghost: fleet mode injects no simulated faults; kill the worker processes instead")
	}
	geoms, err := decompose(g, &cfg)
	if err != nil {
		return Report{}, err
	}
	K, n := cfg.width, len(geoms)

	before := g.Sum()
	startRound, startTopples := 0, uint64(0)
	var dur *durable
	if cfg.ck != nil {
		if startRound, startTopples, err = restoreGhost(cfg.ck, g); err != nil {
			return Report{}, err
		}
		h, w := g.H(), g.W()
		// Checkpoints are written right after a pull, when g is whole.
		dur = &durable{ck: cfg.ck, encode: func(round int, topples uint64) []byte {
			var e ckpt.Enc
			encodeGhostHeader(&e, round, topples, h, w)
			for y := 0; y < h; y++ {
				for _, v := range g.Row(y) {
					e.U32(v)
				}
			}
			return e.Bytes()
		}}
	}

	fc := *cfg.fleet
	fc.Workers = n
	fc.Proto = GhostProto
	if !fc.Obs.Enabled() {
		fc.Obs = cfg.obs
	}
	co, err := pnet.NewCoordinator(fc)
	if err != nil {
		return Report{}, err
	}
	defer co.Close()

	f := &fleetRun{
		cfg: cfg, co: co, g: g, geoms: geoms,
		ranks: make([]fleetRank, n),
		rep:   Report{Ranks: n, GhostWidth: K},
		gen:   1, committed: startRound, snapRound: startRound,
		topples: startTopples, snapTopples: startTopples,
		snap: g.Clone(),
	}
	if err := f.run(ctx, dur); err != nil {
		return f.rep, err
	}
	co.Stop(pnet.Msg{Type: msgStop})
	f.rep.Iterations = f.committed * K
	f.rep.Topples = f.topples
	g.ClearHalo()
	f.rep.Absorbed = before - g.Sum()
	f.rep.publish(cfg.obs.Metrics)
	return f.rep, nil
}

// run computes rounds to the fixed point. After a round commits it
// pulls the blocks when the snapshot or a durable checkpoint is due, or
// the run is over; a phase that loses a rank's state it cannot re-seed
// rolls the run back to the snapshot.
func (f *fleetRun) run(ctx context.Context, dur *durable) error {
	K := f.cfg.width
	for {
		round := f.committed + 1
		f.rep.Exchanges++
		ok, err := f.phase(ctx, round, false)
		if err != nil {
			return err
		}
		if !ok {
			f.rollback()
			continue
		}
		total := f.commit(round)
		cont := total != 0 && round*K < f.cfg.maxIters
		// A checkpoint whose pull is rolled back is skipped: its cadence
		// marker has already moved on.
		save := cont && dur.due(round)
		if cont && !save && round-f.snapRound < snapEvery {
			continue
		}
		if ok, err = f.phase(ctx, round, true); err != nil {
			return err
		}
		if !ok {
			f.rollback()
			continue
		}
		if !cont {
			return nil
		}
		f.snap.CopyFrom(f.g)
		f.snapRound, f.snapTopples = f.committed, f.topples
		if save {
			if err := dur.write(round, f.topples); err != nil {
				return fmt.Errorf("ghost: checkpoint: %w", err)
			}
		}
	}
}

// phase runs one exchange with every rank: computing round, or pulling
// the owned blocks as of round when pull is set. It returns false when
// a rank lost state that only a rollback restores.
func (f *fleetRun) phase(ctx context.Context, round int, pull bool) (bool, error) {
	for id := range f.ranks {
		r := &f.ranks[id]
		r.done, r.seeded = false, false
	}
	for id := range f.ranks {
		if !f.dispatch(id, round, pull) {
			return false, nil
		}
	}
	for !f.allDone() {
		var ev pnet.Event
		if len(f.local) > 0 {
			ev, f.local = f.local[0], f.local[1:]
		} else {
			var ok bool
			select {
			case <-ctx.Done():
				return false, ctx.Err()
			case ev, ok = <-f.co.Events():
				if !ok {
					return false, fmt.Errorf("ghost: fleet coordinator closed")
				}
			}
		}
		r := &f.ranks[ev.Rank]
		switch ev.Kind {
		case pnet.PeerJoined:
			// A rejoining rank holds no block it can prove current: a fresh
			// incarnation has none, and a reconnecting one may have missed
			// a message. A first join lost nothing; it may even hold the
			// seed sent before its join was seen.
			if ev.Rejoin && !f.lose(ev.Rank, pull) {
				return false, nil
			}
			if !r.resident && !f.dispatch(ev.Rank, round, pull) {
				return false, nil
			}
		case pnet.PeerDead:
			f.cfg.obs.Log.Event(obs.LevelWarn, "ghost", "fleet rank died",
				obs.Arg{Key: "rank", Value: int64(ev.Rank)},
				obs.Arg{Key: "round", Value: int64(round)})
			if !f.lose(ev.Rank, pull) {
				return false, nil
			}
		case pnet.PeerLost:
			f.cfg.obs.Log.Event(obs.LevelError, "ghost", "fleet rank lost; computing its block locally",
				obs.Arg{Key: "rank", Value: int64(ev.Rank)})
			r.local = &block{}
			if !f.lose(ev.Rank, pull) || !f.dispatch(ev.Rank, round, pull) {
				return false, nil
			}
		case pnet.PeerMsg:
			if r.local == nil {
				f.rep.Messages++
				f.rep.BytesSent += uint64(len(ev.Msg.Payload))
			}
			gen, rr, body, err := readHeader(ev.Msg.Payload)
			if err != nil {
				return false, err
			}
			if gen != f.gen || rr != round || r.done {
				continue // outlived a re-seed, a rollback, or a duplicate
			}
			switch {
			case ev.Msg.Type == msgNoState:
				if !r.resident || r.seeded {
					continue // the loss is known; a seed is on its way or will be
				}
				if !f.lose(ev.Rank, pull) || !f.dispatch(ev.Rank, round, pull) {
					return false, nil
				}
			case ev.Msg.Type == msgReport && !pull:
				ge := f.geoms[ev.Rank]
				if len(body) != countsLen+4*cellsOf(ge.edges()) {
					return false, fmt.Errorf("%w: rank %d report of %d bytes", errMalformed, ev.Rank, len(body))
				}
				r.work = roundWork{
					changes:   int(binary.LittleEndian.Uint64(body)),
					redundant: binary.LittleEndian.Uint64(body[8:]),
					owned:     uint64(ge.K * ge.ownH * ge.ownW),
				}
				r.edges = body[countsLen:]
				r.done = true
			case ev.Msg.Type == msgBlock && pull:
				ge := f.geoms[ev.Rank]
				if len(body) != 4*ge.ownH*ge.ownW {
					return false, fmt.Errorf("%w: rank %d block of %d bytes", errMalformed, ev.Rank, len(body))
				}
				dy, dx := ge.origin()
				readCells(body, f.g, []rect{ge.owned()}, dy, dx)
				r.done = true
			}
		}
	}
	return true, nil
}

func (f *fleetRun) allDone() bool {
	for _, r := range f.ranks {
		if !r.done {
			return false
		}
	}
	return true
}

// lose records that rank id no longer holds its block. A report it
// already gave for the round in flight is dropped, since the re-seed
// recomputes it; a block it already gave for a pull stays. It returns
// false when only a rollback can restore the rank: rounds have
// committed since the snapshot, so the global grid is not whole.
func (f *fleetRun) lose(id int, pull bool) bool {
	r := &f.ranks[id]
	if r.held {
		r.held = false
		f.rep.Recoveries++
		f.cfg.obs.Metrics.Counter("fault.recoveries").Inc()
	}
	r.resident = false
	if pull && r.done {
		return true // re-seeded from the snapshot this pull completes
	}
	r.done = false
	return f.committed == f.snapRound
}

// dispatch sends rank id what it needs for the phase: a step or pull
// to a resident block, else a seed carved from the global grid, which
// is only whole when nothing has committed since the snapshot. It
// returns false when a rollback is needed. A failed send marks the
// rank non-resident; its PeerDead or PeerJoined follows.
func (f *fleetRun) dispatch(id, round int, pull bool) bool {
	r := &f.ranks[id]
	if r.done {
		return true
	}
	ge := f.geoms[id]
	dy, dx := ge.origin()
	var typ uint8
	b := appendHeader(f.out[:0], f.gen, round)
	switch {
	case r.resident && pull:
		typ = msgPull
	case r.resident:
		typ = msgStep
		b = appendCells(b, f.g, ge.bands(), dy, dx)
	case pull || f.committed != f.snapRound:
		return false
	default:
		typ = msgSeed
		b = appendCells(appendGeom(b, ge), f.g, []rect{ge.window()}, dy, dx)
	}
	f.out = b
	if !f.send(id, pnet.Msg{Type: typ, Payload: b}) {
		r.resident = false
		return true
	}
	if typ == msgSeed {
		r.held, r.resident, r.seeded = true, true, true
		f.cfg.obs.Metrics.Counter("ghost.fleet.seeds").Inc()
	}
	return true
}

// send delivers m to rank id: over the fleet, or into the coordinator's
// own block for a lost rank, whose reply is queued as an event.
func (f *fleetRun) send(id int, m pnet.Msg) bool {
	if b := f.ranks[id].local; b != nil {
		reply, err := b.serveRound(m)
		if err != nil {
			panic(err) // the codecs are inverses: a bug, not bad input
		}
		f.local = append(f.local, pnet.Event{Rank: id, Kind: pnet.PeerMsg, Msg: reply})
		return true
	}
	if f.co.Send(id, m) != nil {
		return false
	}
	f.rep.Messages++
	f.rep.BytesSent += uint64(len(m.Payload))
	return true
}

// commit installs every rank's edge strips into the global grid and
// accounts the round; it returns the round's change count.
func (f *fleetRun) commit(round int) int {
	total := 0
	for id := range f.ranks {
		r := &f.ranks[id]
		ge := f.geoms[id]
		dy, dx := ge.origin()
		readCells(r.edges, f.g, ge.edges(), dy, dx)
		total += r.work.changes
		f.rep.RedundantCells += r.work.redundant
		f.rep.OwnedCells += r.work.owned
	}
	f.committed = round
	f.topples += uint64(total)
	f.cfg.obs.Progress.Update("ghost",
		obs.F("round", float64(round)),
		obs.F("changes", float64(total)),
		obs.F("topples", float64(f.topples)),
		obs.F("recoveries", float64(f.rep.Recoveries)))
	return total
}

// rollback restores the snapshot under a new generation: every rank is
// re-seeded, and replies from the old generation are stale.
func (f *fleetRun) rollback() {
	f.gen++
	f.g.CopyFrom(f.snap)
	f.committed, f.topples = f.snapRound, f.snapTopples
	for id := range f.ranks {
		f.ranks[id].resident = false
	}
	f.local = f.local[:0]
	f.cfg.obs.Metrics.Counter("ghost.fleet.rollbacks").Inc()
	f.cfg.obs.Log.Event(obs.LevelWarn, "ghost", "fleet rolled back to the snapshot",
		obs.Arg{Key: "round", Value: int64(f.snapRound)},
		obs.Arg{Key: "generation", Value: int64(f.gen)})
}
