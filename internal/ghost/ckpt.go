package ghost

// ckpt.go adds durable checkpoint/restart to the distributed runs.
// The coordinator's global grid is whole and globally consistent at
// every window end (fleet.go); this file persists it through
// internal/ckpt at a configurable round cadence, and restores the
// newest valid snapshot into the global grid before the blocks are
// carved — so a killed process resumes from the last committed round
// instead of round zero, under any process grid.
//
// The snapshot is decomposition-independent: it stores the committed
// global cells plus the committed round and cumulative topples. A
// snapshot written by a 4-rank strip run resumes under a 2x3 block
// run, because carving happens after restore. Rounds are global (a
// resumed generation starts at committed+1), so MaxIters needs no
// adjustment, and fault plans replay exactly: injected crash/message
// decisions are keyed by (seed, rank, round), not wall clock.
//
// Like the engine, the coordinator never saves a round that ends the
// run (zero changes or budget exhausted) — resuming from such a round
// would replay one extra round and skew the iteration count.

import (
	"fmt"
	"math"

	"repro/internal/ckpt"
	"repro/internal/grid"
)

// ghostPayload tags distributed-run snapshots inside the ckpt frame.
const ghostPayload uint32 = 2

// durable carries the checkpointer plus the run's encoder of the
// global grid it has just pulled whole. nil means durability is off.
type durable struct {
	ck     *ckpt.Checkpointer
	encode func(round int, topples uint64) []byte
}

// due reports whether the cadence owes a checkpoint at round, moving
// the cadence marker on when it does. False on a nil receiver.
func (d *durable) due(round int) bool { return d != nil && d.ck.Due(int64(round)) }

// write persists the committed round whatever the cadence.
func (d *durable) write(round int, topples uint64) error {
	return d.ck.Save(uint64(round), d.encode(round, topples))
}

// encodeGhostHeader writes the fixed snapshot prefix; the caller
// appends the h*w global cells in row-major order.
func encodeGhostHeader(e *ckpt.Enc, round int, topples uint64, h, w int) {
	e.U32(ghostPayload)
	e.U64(uint64(round))
	e.U64(topples)
	e.U32(uint32(h))
	e.U32(uint32(w))
}

// restoreGhost loads the newest valid snapshot into g and returns the
// committed round and topple count it holds. A checkpointer that is
// not resuming (or an empty store) returns round 0 with g untouched.
func restoreGhost(ck *ckpt.Checkpointer, g *grid.Grid) (round int, topples uint64, err error) {
	epoch, payload, ok, err := ck.Load()
	if err != nil || !ok {
		return 0, 0, err
	}
	return decodeGhost(payload, epoch, g)
}

// decodeGhost decodes a snapshot payload saved at epoch into g. A
// payload that is not a ghost snapshot, is cut off, or holds a round
// that is not its epoch or does not fit an int, is corrupt
// (ckpt.ErrCorrupt); one sized for another grid is a usage error. g is
// written only once the whole payload has checked out.
func decodeGhost(payload []byte, epoch uint64, g *grid.Grid) (round int, topples uint64, err error) {
	dec := ckpt.NewDec(payload)
	if tag := dec.U32(); tag != ghostPayload {
		return 0, 0, fmt.Errorf("ghost: snapshot has payload tag %d, want %d: %w", tag, ghostPayload, ckpt.ErrCorrupt)
	}
	r := dec.U64()
	topples = dec.U64()
	h, w := int(dec.U32()), int(dec.U32())
	if err := dec.Err(); err != nil {
		return 0, 0, fmt.Errorf("ghost: snapshot epoch %d: %w", epoch, err)
	}
	if h != g.H() || w != g.W() {
		return 0, 0, fmt.Errorf("ghost: snapshot is %dx%d but the run grid is %dx%d (resume needs the same size)",
			h, w, g.H(), g.W())
	}
	if r > math.MaxInt || r != epoch {
		return 0, 0, fmt.Errorf("ghost: snapshot epoch %d holds round %d: %w", epoch, r, ckpt.ErrCorrupt)
	}
	cells := dec.Rest()
	if len(cells) < 4*h*w {
		return 0, 0, fmt.Errorf("ghost: snapshot epoch %d holds %d of %d cell bytes: %w", epoch, len(cells), 4*h*w, ckpt.ErrCorrupt)
	}
	cd := ckpt.NewDec(cells)
	for y := 0; y < h; y++ {
		row := g.Row(y)
		for x := range row {
			row[x] = cd.U32()
		}
	}
	g.ClearHalo()
	return int(r), topples, nil
}
