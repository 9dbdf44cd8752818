package ghost

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// seedMsg encodes a seed of window for geometry ge.
func seedMsg(ge geom, gen, round int, window *grid.Grid) pnet.Msg {
	p := appendGeom(appendHeader(nil, gen, round), ge)
	return pnet.Msg{Type: msgSeed, Payload: appendCells(p, window, []rect{ge.window()}, 0, 0)}
}

// fuzzGeom draws a valid geometry from raw bytes: K in 1..3, each
// owned extent in K..K+4, and a ghost side wherever a bit of raw[3]
// says so. Its window is filled from the rest of raw.
func fuzzGeom(raw []byte) (geom, *grid.Grid) {
	var b [4]byte
	copy(b[:], raw)
	K := 1 + int(b[0])%3
	ge := geom{K: K, ownH: K + int(b[1])%5, ownW: K + int(b[2])%5}
	for i, side := range []*int{&ge.gTop, &ge.gBot, &ge.gLeft, &ge.gRh} {
		if b[3]&(1<<i) != 0 {
			*side = K
		}
	}
	w := grid.New(ge.localH(), ge.localW())
	fillFrom(w, raw[min(len(raw), 4):])
	w.Row(ge.gTop)[ge.gLeft] += 5 // at least one topple
	return ge, w
}

// fillFrom sets g's cells to 0..7, cycling through raw.
func fillFrom(g *grid.Grid, raw []byte) {
	if len(raw) == 0 {
		return
	}
	for y := 0; y < g.H(); y++ {
		row := g.Row(y)
		for x := range row {
			row[x] = uint32(raw[(y*len(row)+x)%len(raw)] % 8)
		}
	}
}

// checkReport compares a report with the kernel run directly on ref,
// which it advances by one round.
func checkReport(t *testing.T, ge geom, reply pnet.Msg, gen, round int, ref, scratch *grid.Grid) (*grid.Grid, *grid.Grid) {
	t.Helper()
	w, final, spare := computeBlock(ge, ref, scratch)
	want := appendHeader(nil, gen, round)
	want = binary.LittleEndian.AppendUint64(want, uint64(w.changes))
	want = binary.LittleEndian.AppendUint64(want, w.redundant)
	want = appendCells(want, final, ge.edges(), 0, 0)
	if reply.Type != msgReport || !slices.Equal(reply.Payload, want) {
		t.Fatalf("round %d report (type %d) differs from the kernel's", round, reply.Type)
	}
	return final, spare
}

// FuzzServeRound feeds arbitrary frames to a worker's block. No input
// may panic, and a rejected one must leave the block untouched. Then,
// for a valid geometry drawn from the input, seed, step and pull must
// round-trip: each reply equals what the kernel computes directly.
func FuzzServeRound(f *testing.F) {
	ge, win := fuzzGeom([]byte{1, 2, 3, 0xf, 9, 4, 7})
	f.Add(msgSeed, seedMsg(ge, 1, 1, win).Payload)
	f.Add(msgStep, appendCells(appendHeader(nil, 1, 2), win, ge.bands(), 0, 0))
	f.Add(msgPull, appendHeader(nil, 1, 1))
	f.Add(msgStop, []byte{})
	// testdata/fuzz/FuzzServeRound holds the corrupt cases, among them
	// a 44-byte seed whose owned block claims 0x7fffffff² cells.

	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		// A valid seed with no ghost sides may ask for any number of
		// steps per round; deep ones only cost time.
		if typ == msgSeed && len(p) >= headerLen+4 && binary.LittleEndian.Uint32(p[headerLen:]) > 64 {
			return
		}
		seeded := &block{}
		if _, err := seeded.serveRound(seedMsg(ge, 1, 1, win)); err != nil {
			t.Fatal(err)
		}
		for _, b := range []*block{{}, seeded} {
			var before *grid.Grid
			if b.cur != nil {
				before = b.cur.Clone()
			}
			reply, err := b.serveRound(pnet.Msg{Type: typ, Payload: p})
			if err != nil {
				if before != nil && !b.cur.Equal(before) {
					t.Fatalf("rejected frame changed the block: %v", err)
				}
				if !errors.Is(err, errMalformed) && !strings.Contains(err.Error(), "unexpected frame type") {
					t.Fatalf("unnamed error: %v", err)
				}
				continue
			}
			gen, _, _, herr := readHeader(reply.Payload)
			if herr != nil || gen != int(binary.LittleEndian.Uint32(p)) {
				t.Fatalf("reply header does not echo the generation: %v", herr)
			}
			if typ == msgSeed {
				// An accepted seed installs exactly its geometry and
				// computes exactly its round.
				_, round, _, _ := readHeader(p)
				if b.round != round || !slices.Equal(appendGeom(nil, b.geom), p[headerLen:headerLen+geomLen]) {
					t.Fatalf("seed for round %d left the block at round %d, geometry %+v", round, b.round, b.geom)
				}
			}
		}

		ge, win := fuzzGeom(p)
		b := &block{}
		reply, err := b.serveRound(seedMsg(ge, 7, 3, win))
		if err != nil {
			t.Fatalf("valid seed %+v rejected: %v", ge, err)
		}
		ref, scratch := checkReport(t, ge, reply, 7, 3, win.Clone(), grid.New(win.H(), win.W()))

		// Fresh bands, from the input reversed.
		bands := grid.New(win.H(), win.W())
		rev := slices.Clone(p)
		slices.Reverse(rev)
		fillFrom(bands, rev)
		step := appendCells(appendHeader(nil, 7, 4), bands, ge.bands(), 0, 0)
		readCells(step[headerLen:], ref, ge.bands(), 0, 0)
		if reply, err = b.serveRound(pnet.Msg{Type: msgStep, Payload: step}); err != nil {
			t.Fatalf("valid step rejected: %v", err)
		}
		ref, _ = checkReport(t, ge, reply, 7, 4, ref, scratch)

		if reply, _ = b.serveRound(pnet.Msg{Type: msgStep, Payload: step}); reply.Type != msgNoState {
			t.Fatalf("replayed step answered type %d, want no state", reply.Type)
		}
		reply, err = b.serveRound(pnet.Msg{Type: msgPull, Payload: appendHeader(nil, 7, 4)})
		want := appendCells(appendHeader(nil, 7, 4), ref, []rect{ge.owned()}, 0, 0)
		if err != nil || reply.Type != msgBlock || !slices.Equal(reply.Payload, want) {
			t.Fatalf("pull: type %d err %v, block differs from the kernel's", reply.Type, err)
		}
	})
}

// TestFleetTrafficBound: a fault-free run moves halos, not blocks.
// Every round costs each rank one step (header + bands) and one report
// (header + counts + edge strips); on top come one seed per rank and,
// per snapshot, one pull and one block per rank.
func TestFleetTrafficBound(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ranks int
		opts  []Option
	}{
		{"strips", 3, []Option{WithRanks(3), WithWidth(2)}},
		{"blocks", 6, []Option{WithProcessGrid(2, 3), WithWidth(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, _ := pnet.New("chan")
			rep := runFleetCase(t, tc.opts, spawnWorkers(tr, tc.ranks))
			cfg := config{width: 1}
			for _, o := range tc.opts {
				o(&cfg)
			}
			geoms, err := decompose(fleetGrid(24, 18), &cfg)
			if err != nil {
				t.Fatal(err)
			}
			snaps := uint64(rep.Exchanges/snapEvery + 1)
			var perRound, perSnap uint64
			for _, ge := range geoms {
				perRound += headerLen + 4*uint64(cellsOf(ge.bands())) +
					headerLen + countsLen + 4*uint64(cellsOf(ge.edges()))
				perSnap += headerLen + geomLen + 4*uint64(ge.window().cells()) + // seed
					headerLen + // pull
					headerLen + 4*uint64(ge.ownH*ge.ownW) // block
			}
			bound := uint64(rep.Exchanges)*perRound + snaps*perSnap
			if rep.BytesSent > bound {
				t.Fatalf("%d bytes over %d rounds, bound %d", rep.BytesSent, rep.Exchanges, bound)
			}
			t.Logf("%d bytes over %d rounds (bound %d)", rep.BytesSent, rep.Exchanges, bound)
		})
	}
}

// TestFleetCheckpointsMatchInProcess: every snapshot a fleet run saves
// is byte-identical to the in-process run's at the same epoch, though
// the two cut the grid differently.
func TestFleetCheckpointsMatchInProcess(t *testing.T) {
	init := sandpile.Center(9000).Build(48, 40, nil)
	epochs := func(dir string) ([]uint64, map[uint64][]byte) {
		store, err := ckpt.Open(dir, "ghost")
		if err != nil {
			t.Fatal(err)
		}
		es, err := store.Epochs()
		if err != nil {
			t.Fatal(err)
		}
		out := map[uint64][]byte{}
		for _, e := range es {
			_, p, err := ckpt.ReadFile(filepath.Join(dir, fmt.Sprintf("ghost.%d.ckpt", e)))
			if err != nil {
				t.Fatal(err)
			}
			out[e] = p
		}
		return es, out
	}
	keepAll := func(dir string) *ckpt.Checkpointer {
		store, err := ckpt.Open(dir, "ghost", ckpt.WithKeep(1<<20))
		if err != nil {
			t.Fatal(err)
		}
		return ckpt.NewCheckpointer(store, 5, false)
	}

	inDir := t.TempDir()
	if _, err := New(init.Clone(), WithRanks(3), WithWidth(2), WithCheckpoint(keepAll(inDir))).Run(); err != nil {
		t.Fatal(err)
	}
	wantEpochs, want := epochs(inDir)
	if len(wantEpochs) < 3 {
		t.Fatalf("in-process run saved only %v", wantEpochs)
	}

	flDir := t.TempDir()
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	fc := &pnet.FleetConfig{Transport: tr, Listen: "ghost-fleet-ckpt",
		Spawn: onceSpawn(ctx, spawnWorkers(tr, 6)), JoinTimeout: 10 * time.Second}
	if _, err := New(init.Clone(), WithProcessGrid(2, 3), WithWidth(2),
		WithCheckpoint(keepAll(flDir)), WithFleet(fc)).RunContext(ctx); err != nil {
		t.Fatal(err)
	}
	gotEpochs, got := epochs(flDir)
	if !slices.Equal(gotEpochs, wantEpochs) {
		t.Fatalf("fleet saved epochs %v, in-process %v", gotEpochs, wantEpochs)
	}
	for _, e := range wantEpochs {
		if !slices.Equal(got[e], want[e]) {
			t.Fatalf("epoch %d: fleet snapshot differs from the in-process one", e)
		}
	}
}
