package ghost

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/ckpt"
	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

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

// fuzzSeed is a valid seed for fuzzGeom's geometry, its neighbours
// named from raw, and the window its block is cut from.
func fuzzSeed(raw []byte) (seed, *grid.Grid) {
	ge, win := fuzzGeom(raw)
	s := seed{gen: 7, round: 3, end: 5, geom: ge}
	for side := range nSides {
		s.nbrs[side] = peer{rank: -1}
		if _, _, ok := ge.halo(side); ok {
			s.nbrs[side] = peer{rank: 10 + side, addr: fmt.Sprintf("peer-%d-%x", side, raw[:min(len(raw), 3)])}
		}
	}
	return s, win
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

// The fixed geometry the fuzzer decodes halos and reports for.
var fuzzFixed, fuzzFixedWin = fuzzSeed([]byte{1, 2, 3, 0xf, 9, 4, 7})

// decodeAny decodes p as a frame of type typ and, when that succeeds,
// returns a function that encodes the result again; the codecs are
// canonical, so it must give back p. Halos and reports are decoded for
// fuzzFixed, the halo as its west one.
func decodeAny(typ byte, p []byte) (func() []byte, error) {
	ge := fuzzFixed.geom
	switch typ {
	case msgSeed:
		s, err := decodeSeed(p)
		return func() []byte {
			g := grid.New(s.localH(), s.localW())
			readRect(s.cells, g, s.owned(), 0, 0)
			return appendSeed(nil, s, g, 0, 0)
		}, err
	case msgGrant:
		gen, round, end, err := decodeGrant(p)
		return func() []byte { return grantMsg(gen, round, end).Payload }, err
	case msgLink:
		gen, round, rank, err := decodeLink(p)
		return func() []byte { return linkMsg(gen, round, rank).Payload }, err
	case msgHalo:
		_, in, _ := ge.halo(west)
		gen, round, cells, err := decodeHalo(p, in)
		return func() []byte {
			g := grid.New(ge.localH(), ge.localW())
			readRect(cells, g, in, 0, 0)
			return appendRect(appendHeader(nil, gen, round), g, in, 0, 0)
		}, err
	case msgReport:
		r, err := decodeReport(p, ge)
		return func() []byte {
			g := grid.New(ge.localH(), ge.localW())
			readRect(r.block, g, ge.owned(), 0, 0)
			return appendReport(nil, r.gen, r.end, r.work, g, ge.owned())
		}, err
	}
	return nil, fmt.Errorf("%w: no decoder for type %d", errMalformed, typ)
}

// serveRoundSeeds is the checked-in corpus of FuzzServeRound for the
// ghost/3 frames. `go test ./internal/ghost -run TestServeRoundCorpus
// -update` rewrites them from this table. The corpus's other files are
// ghost/2 frames, which a ghost/3 worker must reject as garbage.
var serveRoundSeeds = func() map[string]struct {
	typ byte
	p   []byte
} {
	valid := appendSeed(nil, fuzzFixed, fuzzFixedWin, 0, 0)
	hugeAddr := appendGeom(binary.LittleEndian.AppendUint64(appendHeader(nil, 1, 0), 2), fuzzFixed.geom)
	hugeAddr = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(hugeAddr, 3), math.MaxUint32)
	report := appendReport(nil, 1, 2, []roundWork{{changes: 1}, {redundant: 2}}, fuzzFixedWin, fuzzFixed.owned())
	hugeRounds := slices.Clone(report)
	binary.LittleEndian.PutUint32(hugeRounds[headerLen:], math.MaxUint32)
	tooMany := slices.Clone(report)
	binary.LittleEndian.PutUint64(tooMany[headerLen+4:], math.MaxUint64)
	_, in, _ := fuzzFixed.halo(west)
	halo := appendRect(appendHeader(nil, 1, 2), fuzzFixedWin, in, 0, 0)
	return map[string]struct {
		typ byte
		p   []byte
	}{
		"seed_address_past_end":     {msgSeed, hugeAddr},
		"seed_cut_in_block":         {msgSeed, valid[:len(valid)-1]},
		"seed_window_backwards":     {msgSeed, binary.LittleEndian.AppendUint64(appendHeader(nil, 1, 9), 9)},
		"grant_backwards":           {msgGrant, grantMsg(1, 5, 5).Payload},
		"link_long":                 {msgLink, append(linkMsg(1, 0, 2).Payload, 0)},
		"halo_short":                {msgHalo, halo[:len(halo)-4]},
		"report_huge_rounds":        {msgReport, hugeRounds},
		"report_changes_past_block": {msgReport, tooMany},
		"round_past_maxint": {msgGrant, binary.LittleEndian.AppendUint64(
			appendHeader(nil, 1, -1), math.MaxUint64)},
	}
}()

const serveRoundCorpus = "testdata/fuzz/FuzzServeRound"

// TestServeRoundCorpus: the checked-in ghost/3 corpus is exactly what
// serveRoundSeeds generates (-update rewrites it).
func TestServeRoundCorpus(t *testing.T) {
	for name, s := range serveRoundSeeds {
		path := filepath.Join(serveRoundCorpus, name)
		want := fmt.Sprintf("go test fuzz v1\nbyte(%q)\n[]byte(%q)\n", s.typ, s.p)
		if *updateGolden {
			if err := os.WriteFile(path, []byte(want), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate the corpus)", err)
		}
		if string(got) != want {
			t.Errorf("%s holds %q, want %q (run with -update)", path, got, want)
		}
		if _, err := decodeAny(s.typ, s.p); !errors.Is(err, errMalformed) {
			t.Errorf("%s: decoded with error %v, want errMalformed", name, err)
		}
	}
}

// FuzzServeRound feeds arbitrary frames to every ghost/3 decoder and to
// a worker's frame handler. No input may panic or allocate much more
// than its own size, a rejected one must be errMalformed, and an
// accepted one must encode back to the same bytes. Then, for a valid
// geometry drawn from the input, a seed, one halo per side and a
// window report must round-trip through a block: the report equals
// what the kernel computes directly.
func FuzzServeRound(f *testing.F) {
	s, win := fuzzFixed, fuzzFixedWin
	_, in, _ := s.halo(north)
	f.Add(msgSeed, appendSeed(nil, s, win, 0, 0))
	f.Add(msgGrant, grantMsg(1, 64, 128).Payload)
	f.Add(msgLink, linkMsg(1, 0, 3).Payload)
	f.Add(msgHalo, appendRect(appendHeader(nil, 1, 2), win, in, 0, 0))
	f.Add(msgReport, appendReport(nil, 1, 5, []roundWork{{changes: 3, redundant: 4}, {}}, win, s.owned()))
	f.Add(msgAbort, appendHeader(nil, 1, 4))
	f.Add(msgStop, []byte{})

	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		again, err := decodeAny(typ, p)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*uint64(len(p)) {
			t.Fatalf("a %d-byte frame allocated %d bytes", len(p), grew)
		}
		switch {
		case err != nil && !errors.Is(err, errMalformed):
			t.Fatalf("unnamed error: %v", err)
		case err == nil && !slices.Equal(again(), p):
			t.Fatalf("type %d decodes but encodes back as %x", typ, again())
		}
		if typ != msgSeed { // a seed would start linking to its neighbours
			err := (&worker{}).handle(pnet.Msg{Type: typ, Payload: p}, func(pnet.Msg) error { return nil })
			if err != nil && !errors.Is(err, errMalformed) && !errors.Is(err, pnet.ErrWorkerDone) {
				t.Fatalf("handler: unnamed error: %v", err)
			}
		}

		s, win := fuzzSeed(p)
		got, err := decodeSeed(appendSeed(nil, s, win, 0, 0))
		if err != nil || got.geom != s.geom || got.nbrs != s.nbrs || got.end != s.end {
			t.Fatalf("seed %+v decodes as %+v, %v", s, got, err)
		}
		var b block
		b.install(got)
		// Fresh halos, from the input reversed; the reference window
		// takes the same cells.
		ref := win.Clone()
		bands := grid.New(win.H(), win.W())
		rev := slices.Clone(p)
		slices.Reverse(rev)
		fillFrom(bands, rev)
		for side := range nSides {
			_, in, ok := s.halo(side)
			if !ok {
				continue
			}
			_, _, cells, err := decodeHalo(appendRect(appendHeader(nil, 7, 4), bands, in, 0, 0), in)
			if err != nil {
				t.Fatalf("valid halo rejected: %v", err)
			}
			readRect(cells, b.cur, in, 0, 0)
			readRect(cells, ref, in, 0, 0)
		}
		w := b.step()
		wantW, final, _ := computeBlock(s.geom, ref, grid.New(win.H(), win.W()))
		if w != wantW || b.round != s.round+1 {
			t.Fatalf("round work %+v at round %d, kernel %+v", w, b.round, wantW)
		}
		rep, err := decodeReport(appendReport(nil, 7, b.round, []roundWork{w}, b.cur, b.owned()), s.geom)
		want := appendRect(nil, final, s.owned(), 0, 0)
		if err != nil || len(rep.work) != 1 || rep.work[0] != (roundWork{changes: w.changes, redundant: w.redundant}) ||
			!slices.Equal(rep.block, want) {
			t.Fatalf("report %+v (err %v) differs from the kernel's", rep, err)
		}
	})
}

// runFleetOn solves mk's grid with opts over a goroutine fleet of
// ranks workers on tr, listening at listen, and checks the result
// byte-matches the sequential solver. It returns the report and the
// coordinator's transport counters.
func runFleetOn(t *testing.T, mk func() *grid.Grid, opts []Option, tr pnet.Transport, listen string, ranks int) (Report, pnet.FleetStats) {
	t.Helper()
	ref := mk()
	want := sandpile.StabilizeSyncSeq(ref)
	g := mk()
	rep, stats := runFleetGrid(t, g, opts, tr, listen, ranks)
	if !g.Equal(ref) || rep.Topples != want.Topples {
		t.Fatalf("fleet fixed point differs from the sequential solver: topples %d, want %d", rep.Topples, want.Topples)
	}
	return rep, stats
}

// runFleetGrid runs g with opts over a goroutine fleet of ranks workers
// on tr, listening at listen, and checks every worker exits with the
// run. It returns the report and the coordinator's transport counters.
func runFleetGrid(t *testing.T, g *grid.Grid, opts []Option, tr pnet.Transport, listen string, ranks int) (Report, pnet.FleetStats) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	exits := make(chan error, ranks)
	fc := &pnet.FleetConfig{Transport: tr, Listen: listen, Lease: time.Second, JoinTimeout: 10 * time.Second,
		Spawn: onceSpawn(ctx, func(ctx context.Context, addr string) {
			for r := 0; r < ranks; r++ {
				go func(rank int) {
					exits <- FleetWorker(ctx, pnet.WorkerConfig{Transport: tr, Join: addr, Rank: rank,
						Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
						MaxDialAttempts: 1000})
				}(r)
			}
		})}
	r := New(g, append(opts, WithFleet(fc))...)
	rep, stats, err := runFleet(ctx, r.g, r.cfg)
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	for r := 0; r < ranks; r++ {
		select {
		case err := <-exits:
			if err != nil {
				t.Fatalf("worker exited with %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("a worker did not stop with the run")
		}
	}
	return rep, stats
}

// windowGrid is a pile that takes 355 rounds at K=2, so a run crosses
// five window ends.
func windowGrid() *grid.Grid { return sandpile.Center(4000).Build(40, 30, nil) }

// TestFleetTrafficBound: the coordinator handles a few frames per rank
// per window and none per round. Each rank gets a seed, a grant per
// window after the first and a stop, and sends a report per window.
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
			rep, stats := runFleetOn(t, windowGrid, tc.opts, tr, "ghost-fleet-traffic-"+tc.name, tc.ranks)
			if rep.Exchanges <= snapEvery {
				t.Fatalf("%d rounds fit one window; the bound needs several", rep.Exchanges)
			}
			frames := stats.Sent + stats.Received
			bound := int64(2 * tc.ranks * (rep.Exchanges/snapEvery + 2))
			if frames > bound {
				t.Fatalf("coordinator handled %d frames over %d rounds, bound %d", frames, rep.Exchanges, bound)
			}
			t.Logf("coordinator handled %d frames over %d rounds (bound %d)", frames, rep.Exchanges, bound)
		})
	}
}

// TestFleetOverSockets runs strips and blocks over real unix and tcp
// sockets, where workers find their peers' addresses by each scheme's
// own rule, and checks every report field against the in-process run.
// The unix workers' peer sockets must be gone once they have exited.
func TestFleetOverSockets(t *testing.T) {
	for _, scheme := range []string{"unix", "tcp"} {
		for _, tc := range []struct {
			name  string
			ranks int
			opts  []Option
		}{
			{"strips", 3, []Option{WithRanks(3), WithWidth(2)}},
			{"blocks", 6, []Option{WithProcessGrid(2, 3), WithWidth(2)}},
		} {
			t.Run(scheme+"/"+tc.name, func(t *testing.T) {
				dir, err := os.MkdirTemp("", "gf") // short: sun_path holds 108 bytes
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(dir)
				listen := "127.0.0.1:0"
				if scheme == "unix" {
					listen = filepath.Join(dir, "c.sock")
				}
				inRep, err := New(windowGrid(), tc.opts...).Run()
				if err != nil {
					t.Fatal(err)
				}
				tr, _ := pnet.New(scheme)
				rep, _ := runFleetOn(t, windowGrid, tc.opts, tr, listen, tc.ranks)
				if !sameReport(rep, inRep) {
					t.Fatalf("fleet %+v != in-process %+v", rep, inRep)
				}
				if left, _ := filepath.Glob(filepath.Join(dir, "peer-*")); len(left) > 0 {
					t.Fatalf("peer sockets left behind: %v", left)
				}
			})
		}
	}
}

// TestFleetLargeHalosOverSockets runs halos larger than a socket's
// send buffer over unix and tcp: 2 strips whose halos are K full rows
// of a wide grid, and 2x2 blocks whose N/S halos are as large. A rank
// whose send waits for its neighbour to read must never wait on a
// neighbour that is itself sending, so each run must finish with the
// in-process run's grid and report. A checkpoint every 8 rounds ends
// a window, so the 20 rounds span three windows.
func TestFleetLargeHalosOverSockets(t *testing.T) {
	const K, H, rounds, every = 2, 8, 20, 8
	for _, scheme := range []string{"unix", "tcp"} {
		for _, tc := range []struct {
			name     string
			ranks, w int
			opts     []Option
		}{
			// A halo of K×W×4 = 560 KB, against a unix socket's
			// default send buffer of about 208 KB.
			{"strips", 2, 70000, []Option{WithRanks(2)}},
			{"blocks", 4, 2 * 70000, []Option{WithProcessGrid(2, 2)}},
		} {
			t.Run(scheme+"/"+tc.name, func(t *testing.T) {
				dir, err := os.MkdirTemp("", "gf")
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(dir)
				listen := "127.0.0.1:0"
				if scheme == "unix" {
					listen = filepath.Join(dir, "c.sock")
				}
				opts := func(name string) []Option {
					store, err := ckpt.Open(filepath.Join(dir, name), "ghost")
					if err != nil {
						t.Fatal(err)
					}
					return append(tc.opts, WithWidth(K), WithMaxIters(K*rounds),
						WithCheckpoint(ckpt.NewCheckpointer(store, every, false)))
				}
				mk := func() *grid.Grid { return sandpile.Center(1<<30).Build(H, tc.w, nil) }
				want := mk()
				inRep, err := New(want, opts("in")...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if inRep.Exchanges != rounds {
					t.Fatalf("the run stops after %d rounds, not %d", inRep.Exchanges, rounds)
				}
				tr, _ := pnet.New(scheme)
				g := mk()
				rep, _ := runFleetGrid(t, g, opts("fleet"), tr, listen, tc.ranks)
				if !g.Equal(want) || !sameReport(rep, inRep) {
					t.Fatalf("fleet %+v != in-process %+v", rep, inRep)
				}
			})
		}
	}
}

// TestFleetSmallHalosPipelined runs halos at the pipelining bound over
// unix and tcp: 2 strips whose halos are K full rows, and 2x2 blocks
// whose N/S halos span a block's local width, each with the largest
// halo that fits pipelineHalo (sent before its phase's receives) and
// with one cell more (exchanged in rank order). Each run must finish
// with the in-process run's grid and report. A checkpoint every 8
// rounds ends a window, so the 20 rounds span three windows.
func TestFleetSmallHalosPipelined(t *testing.T) {
	const K, H, rounds, every = 1, 8, 20, 8
	fit := (pipelineHalo - headerLen) / 4 // the most cells a pipelined halo holds
	for _, scheme := range []string{"unix", "tcp"} {
		for _, tc := range []struct {
			name  string
			ranks int
			cells int           // in each N/S halo
			width func(int) int // the grid width whose N/S halos hold cells
			opts  []Option
		}{
			{"strips/fit", 2, fit, func(c int) int { return c / K }, []Option{WithRanks(2)}},
			{"strips/past", 2, fit + 1, func(c int) int { return c / K }, []Option{WithRanks(2)}},
			{"blocks/fit", 4, fit, func(c int) int { return 2 * (c/K - K) }, []Option{WithProcessGrid(2, 2)}},
			{"blocks/past", 4, fit + 1, func(c int) int { return 2 * (c/K - K) }, []Option{WithProcessGrid(2, 2)}},
		} {
			t.Run(scheme+"/"+tc.name, func(t *testing.T) {
				dir, err := os.MkdirTemp("", "gf")
				if err != nil {
					t.Fatal(err)
				}
				defer os.RemoveAll(dir)
				listen := "127.0.0.1:0"
				if scheme == "unix" {
					listen = filepath.Join(dir, "c.sock")
				}
				opts := func(name string) []Option {
					store, err := ckpt.Open(filepath.Join(dir, name), "ghost")
					if err != nil {
						t.Fatal(err)
					}
					return append(tc.opts, WithWidth(K), WithMaxIters(K*rounds),
						WithCheckpoint(ckpt.NewCheckpointer(store, every, false)))
				}
				mk := func() *grid.Grid { return sandpile.Center(1<<30).Build(H, tc.width(tc.cells), nil) }

				// Every N/S halo holds the chosen cells; the blocks' E/W
				// halos are small.
				r := New(mk(), opts("geom")...)
				geoms, err := decompose(r.g, &r.cfg)
				if err != nil {
					t.Fatal(err)
				}
				for id, ge := range geoms {
					for s := range nSides {
						out, _, ok := ge.halo(s)
						if !ok {
							continue
						}
						if s >= north && out.cells() != tc.cells {
							t.Fatalf("rank %d side %d: %d-cell halo, want %d", id, s, out.cells(), tc.cells)
						}
						if want := s < north || tc.cells <= fit; ge.pipelined(s) != want {
							t.Fatalf("rank %d side %d: %d-cell halo pipelined %v, want %v", id, s, out.cells(), !want, want)
						}
					}
				}

				want := mk()
				inRep, err := New(want, opts("in")...).Run()
				if err != nil {
					t.Fatal(err)
				}
				if inRep.Exchanges != rounds {
					t.Fatalf("the run stops after %d rounds, not %d", inRep.Exchanges, rounds)
				}
				tr, _ := pnet.New(scheme)
				g := mk()
				rep, _ := runFleetGrid(t, g, opts("fleet"), tr, listen, tc.ranks)
				if !g.Equal(want) || !sameReport(rep, inRep) {
					t.Fatalf("fleet %+v != in-process %+v", rep, inRep)
				}
			})
		}
	}
}

// sameReport compares every Report field a fleet run shares with the
// in-process run.
func sameReport(a, b Report) bool {
	return a.Iterations == b.Iterations && a.Topples == b.Topples && a.Absorbed == b.Absorbed &&
		a.Exchanges == b.Exchanges && a.Messages == b.Messages && a.BytesSent == b.BytesSent &&
		a.RedundantCells == b.RedundantCells && a.OwnedCells == b.OwnedCells
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

// TestRectCodecPortable: on a little-endian host appendRect and
// readRect move each row as one copy; the cell-by-cell fallback other
// hosts take must write and read the same bytes.
func TestRectCodecPortable(t *testing.T) {
	g := grid.New(7, 9)
	for y := range 7 {
		for x := range 9 {
			g.Set(y, x, uint32(y)<<24|uint32(x)<<8|0xA5)
		}
	}
	r, dy, dx := rect{1, 5, 2, 8}, 1, 0
	fast := appendRect([]byte{0xEE}, g, r, dy, dx)
	defer func(le bool) { littleEndian = le }(littleEndian)
	littleEndian = false
	want := []byte{0xEE}
	for y := r.y0; y < r.y1; y++ {
		for x := r.x0; x < r.x1; x++ {
			want = binary.LittleEndian.AppendUint32(want, g.Get(y+dy, x+dx))
		}
	}
	if slow := appendRect([]byte{0xEE}, g, r, dy, dx); !slices.Equal(fast, want) || !slices.Equal(slow, want) {
		t.Fatalf("appendRect wrote other bytes than the cells in little-endian order")
	}
	for _, le := range []bool{true, false} {
		littleEndian = le
		h := grid.New(7, 9)
		readRect(want[1:], h, r, dy, dx)
		for y := range 7 {
			for x := range 9 {
				inside := y-dy >= r.y0 && y-dy < r.y1 && x-dx >= r.x0 && x-dx < r.x1
				if got := h.Get(y, x); (inside && got != g.Get(y, x)) || (!inside && got != 0) {
					t.Fatalf("littleEndian=%v: readRect left cell (%d,%d) at %#x", le, y, x, got)
				}
			}
		}
	}
}
