package ghost

// fleet.go runs the distributed sandpile over real process boundaries:
// the goroutine ranks of ghost2d.go become fleet workers
// connected through internal/net, so a SIGKILL is a real lost peer
// detected by a heartbeat lease rather than a simulated crash.
//
// The design keeps workers stateless per round, which is what makes
// recovery trivial and exact. The coordinator owns the committed
// global grid; every round message carries a rank's owned block plus
// its ghost bands carved from that committed state, and the worker
// answers with the block's post-round cells. A worker that dies
// mid-round simply never reports; the supervisor respawns it, the
// rejoin handshake re-delivers the same round message, and the
// automaton's determinism makes the re-execution byte-identical —
// coordinated rollback degenerates to re-dispatch. A rank that stays
// dead past the respawn budget is declared lost and its block is
// computed by the coordinator itself: the run degrades to fewer
// processes, never to a wrong answer.

import (
	"context"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/obs"
)

// GhostProto names the fleet wire protocol version.
const GhostProto = "ghost/1"

// Fleet application frame types.
const (
	// msgRound (coordinator -> worker): one round of work — the rank's
	// block geometry, the round number, the owned cells, and the ghost
	// bands, all carved from the committed global state. Geometry rides
	// in every round (28 bytes) so a freshly rejoined worker needs no
	// separate setup message and no message ordering is load-bearing.
	msgRound uint8 = pnet.FrameApp + iota
	// msgReport (worker -> coordinator): the round's result — change
	// count, redundant-cell count, and the post-round owned cells.
	msgReport
	// msgStop (coordinator -> worker): the run is over; exit cleanly.
	msgStop
)

// encodeRound carves rank ge's round payload out of the committed
// global grid: geometry, round number, owned block, then top/bottom
// bands over the full local width (they carry the corners), then
// left/right columns over owned rows — always in-range because a band
// only exists where a neighbor block does.
func encodeRound(g *grid.Grid, ge geom, round int) []byte {
	var e ckpt.Enc
	for _, v := range []int{ge.K, ge.ownH, ge.ownW, ge.gTop, ge.gBot, ge.gLeft, ge.gRh} {
		e.U32(uint32(v))
	}
	e.U64(uint64(round))
	put := func(y0, y1, x0, x1 int) {
		for y := y0; y < y1; y++ {
			row := g.Row(y)
			for x := x0; x < x1; x++ {
				e.U32(row[x])
			}
		}
	}
	top, left := ge.top, ge.left
	put(top, top+ge.ownH, left, left+ge.ownW)
	bx0, bx1 := left-ge.gLeft, left+ge.ownW+ge.gRh
	put(top-ge.gTop, top, bx0, bx1)
	put(top+ge.ownH, top+ge.ownH+ge.gBot, bx0, bx1)
	put(top, top+ge.ownH, bx0, left)
	put(top, top+ge.ownH, left+ge.ownW, bx1)
	return e.Bytes()
}

// decodeRound rebuilds the geometry and the rank-local grid (owned
// block centered in its ghost frame) from a round payload.
func decodeRound(p []byte) (round int, ge geom, local *grid.Grid, err error) {
	d := ckpt.NewDec(p)
	for _, v := range []*int{&ge.K, &ge.ownH, &ge.ownW, &ge.gTop, &ge.gBot, &ge.gLeft, &ge.gRh} {
		*v = int(d.U32())
	}
	if d.Err() != nil || ge.K <= 0 || ge.ownH <= 0 || ge.ownW <= 0 {
		return 0, geom{}, nil, fmt.Errorf("ghost: malformed round geometry")
	}
	round = int(d.U64())
	local = grid.New(ge.localH(), ge.localW())
	get := func(y0, y1, x0, x1 int) {
		for y := y0; y < y1; y++ {
			row := local.Row(y)
			for x := x0; x < x1; x++ {
				row[x] = d.U32()
			}
		}
	}
	get(ge.gTop, ge.gTop+ge.ownH, ge.gLeft, ge.gLeft+ge.ownW)
	get(0, ge.gTop, 0, ge.localW())
	get(ge.gTop+ge.ownH, ge.localH(), 0, ge.localW())
	get(ge.gTop, ge.gTop+ge.ownH, 0, ge.gLeft)
	get(ge.gTop, ge.gTop+ge.ownH, ge.gLeft+ge.ownW, ge.localW())
	if d.Err() != nil {
		return 0, geom{}, nil, fmt.Errorf("ghost: malformed round message")
	}
	return round, ge, local, nil
}

// serveRound is the worker's whole job: decode a round, run the
// shared K-step kernel over it, and encode the report.
func serveRound(p []byte) ([]byte, error) {
	round, ge, local, err := decodeRound(p)
	if err != nil {
		return nil, err
	}
	w, final, _ := computeBlock(ge, local, grid.New(local.H(), local.W()))
	var e ckpt.Enc
	e.U64(uint64(round))
	e.U64(uint64(w.changes))
	e.U64(w.redundant)
	for y := 0; y < ge.ownH; y++ {
		for _, v := range final.Row(ge.gTop + y)[ge.gLeft : ge.gLeft+ge.ownW] {
			e.U32(v)
		}
	}
	return e.Bytes(), nil
}

// decodeReport reads a worker's report for rank geometry ge. The
// owned-cell count is not on the wire: every step computes the whole
// owned block.
func decodeReport(p []byte, ge geom) (round int, w roundWork, cells []uint32, err error) {
	d := ckpt.NewDec(p)
	round = int(d.U64())
	w.changes = int(d.U64())
	w.redundant = d.U64()
	w.owned = uint64(ge.K * ge.ownH * ge.ownW)
	cells = make([]uint32, ge.ownH*ge.ownW)
	for i := range cells {
		cells[i] = d.U32()
	}
	if d.Err() != nil {
		return 0, roundWork{}, nil, fmt.Errorf("ghost: malformed report message")
	}
	return round, w, cells, nil
}

// FleetWorker joins the fleet at cfg.Join and serves ghost rounds
// until the coordinator sends stop. It is the -worker entry point for
// fleet processes; cfg.Proto defaults to GhostProto.
func FleetWorker(ctx context.Context, cfg pnet.WorkerConfig) error {
	if cfg.Proto == "" {
		cfg.Proto = GhostProto
	}
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		switch m.Type {
		case msgRound:
			p, err := serveRound(m.Payload)
			if err != nil {
				return err
			}
			return send(pnet.Msg{Type: msgReport, Payload: p})
		case msgStop:
			return pnet.ErrWorkerDone
		default:
			return fmt.Errorf("ghost: unexpected frame type %d", m.Type)
		}
	})
}

// runFleet drives the decomposition over a worker fleet. The caller's
// grid g is the committed global state throughout; on return it holds
// the fixed point, exactly as the in-process runtime leaves it.
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

	rep := Report{Ranks: n, GhostWidth: K}
	committed, topples := startRound, startTopples
	lost := make([]bool, n)

	err = func() error {
		for {
			round := committed + 1
			rep.Exchanges++
			total := 0
			seen := make([]bool, n)
			cells := make([][]uint32, n)
			need := n

			record := func(id int, w roundWork, c []uint32) {
				seen[id] = true
				cells[id] = c
				total += w.changes
				rep.RedundantCells += w.redundant
				rep.OwnedCells += w.owned
				need--
			}
			local := func(id int) {
				// The codecs are inverses by construction: an error here
				// is a bug, not bad input.
				p, err := serveRound(encodeRound(g, geoms[id], round))
				if err != nil {
					panic(err)
				}
				_, w, c, err := decodeReport(p, geoms[id])
				if err != nil {
					panic(err)
				}
				record(id, w, c)
			}
			dispatch := func(id int) {
				if seen[id] {
					return
				}
				if lost[id] {
					local(id)
					return
				}
				p := encodeRound(g, geoms[id], round)
				if co.Send(id, pnet.Msg{Type: msgRound, Payload: p}) != nil {
					return // re-dispatched on the rank's next PeerJoined
				}
				rep.Messages++
				rep.BytesSent += uint64(len(p))
			}
			for id := 0; id < n; id++ {
				dispatch(id)
			}
			for need > 0 {
				select {
				case <-ctx.Done():
					return ctx.Err()
				case ev, ok := <-co.Events():
					if !ok {
						return fmt.Errorf("ghost: fleet coordinator closed")
					}
					switch ev.Kind {
					case pnet.PeerJoined:
						dispatch(ev.Rank)
					case pnet.PeerDead:
						// The worker died mid-round; the supervisor (or the
						// worker's own reconnect loop) brings it back, and the
						// rejoin re-dispatch replays the round exactly.
						rep.Recoveries++
						cfg.obs.Metrics.Counter("fault.recoveries").Inc()
						cfg.obs.Log.Event(obs.LevelWarn, "ghost", "fleet rank died",
							obs.Arg{Key: "rank", Value: int64(ev.Rank)},
							obs.Arg{Key: "round", Value: int64(round)})
					case pnet.PeerLost:
						lost[ev.Rank] = true
						cfg.obs.Log.Event(obs.LevelError, "ghost", "fleet rank lost; computing its block locally",
							obs.Arg{Key: "rank", Value: int64(ev.Rank)})
						if !seen[ev.Rank] {
							local(ev.Rank)
						}
					case pnet.PeerMsg:
						if ev.Msg.Type != msgReport {
							continue
						}
						r, w, c, err := decodeReport(ev.Msg.Payload, geoms[ev.Rank])
						if err != nil {
							return err
						}
						rep.Messages++
						rep.BytesSent += uint64(len(ev.Msg.Payload))
						if r != round || seen[ev.Rank] {
							continue // duplicate after a redispatch race: idempotent
						}
						record(ev.Rank, w, c)
					}
				}
			}

			// Commit: install every block's post-round cells into the
			// global grid; the committed state is globally consistent.
			for id, ge := range geoms {
				for y := 0; y < ge.ownH; y++ {
					copy(g.Row(ge.top + y)[ge.left:ge.left+ge.ownW], cells[id][y*ge.ownW:(y+1)*ge.ownW])
				}
			}
			committed = round
			topples += uint64(total)
			cfg.obs.Progress.Update("ghost",
				obs.F("round", float64(round)),
				obs.F("changes", float64(total)),
				obs.F("topples", float64(topples)),
				obs.F("recoveries", float64(rep.Recoveries)))
			cont := total != 0 && round*K < cfg.maxIters
			if !cont {
				return nil
			}
			if err := dur.save(round, topples); err != nil {
				return fmt.Errorf("ghost: checkpoint: %w", err)
			}
		}
	}()
	if err != nil {
		return rep, err
	}
	for id := 0; id < n; id++ {
		co.Send(id, pnet.Msg{Type: msgStop}) // best effort
	}
	rep.Iterations = committed * K
	rep.Topples = topples
	g.ClearHalo()
	rep.Absorbed = before - g.Sum()
	rep.publish(cfg.obs.Metrics)
	return rep, nil
}
