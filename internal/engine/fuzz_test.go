package engine

import (
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/grid"
	"repro/internal/sandpile"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/fuzz/FuzzRestoreEngine")

// The fuzzed restore runs on a 4×6 grid tiled 2×4: four tiles.
const fuzzH, fuzzW, fuzzTileH, fuzzTileW = 4, 6, 2, 4

func fuzzParams() Params { return Params{TileH: fuzzTileH, TileW: fuzzTileW} }

// enginePayloadWith builds an engine snapshot payload by hand for the
// fuzz grid: any iteration count, tile geometry and worklist.
func enginePayloadWith(iters uint64, tileH, tileW uint32, frontier []int32) []byte {
	var e ckpt.Enc
	e.U32(enginePayload)
	e.U64(iters)
	e.U64(17) // topples
	e.U64(3)  // absorbed
	e.U32(tileH)
	e.U32(tileW)
	e.U32(fuzzH)
	e.U32(fuzzW)
	for i := 0; i < fuzzH*fuzzW; i++ {
		e.U32(uint32(i % 5))
	}
	if frontier != nil {
		e.U8(1)
		e.I32s(frontier)
	} else {
		e.U8(0)
	}
	return e.Bytes()
}

type restoreSeed struct {
	name    string
	epoch   uint64
	payload []byte
}

// restoreEngineSeeds is the checked-in corpus of FuzzRestoreEngine.
// `go test ./internal/engine -run TestRestoreEngineCorpus -update`
// rewrites testdata/fuzz/FuzzRestoreEngine from this table.
var restoreEngineSeeds = func() []restoreSeed {
	valid := enginePayloadWith(5, fuzzTileH, fuzzTileW, []int32{0, 3})
	bare := enginePayloadWith(5, fuzzTileH, fuzzTileW, nil)
	// A worklist flag followed by a count of 2³²−1 ids and no ids.
	lyingCount := append(bare[:len(bare)-1:len(bare)-1], 1, 0xFF, 0xFF, 0xFF, 0xFF)
	wrongTag := append([]byte{byte(enginePayload + 1), 0, 0, 0}, valid[4:]...)
	return []restoreSeed{
		{"lazy-snapshot", 5, valid},
		{"eager-snapshot", 2, enginePayloadWith(2, fuzzTileH, fuzzTileW, nil)},
		{"iteration-minus-one", math.MaxUint64, enginePayloadWith(math.MaxUint64, fuzzTileH, fuzzTileW, nil)},
		{"iteration-past-maxint", 1 << 63, enginePayloadWith(1<<63, fuzzTileH, fuzzTileW, []int32{1})},
		{"frontier-past-last-tile", 5, enginePayloadWith(5, fuzzTileH, fuzzTileW, []int32{0, 4})},
		{"frontier-negative-tile", 5, enginePayloadWith(5, fuzzTileH, fuzzTileW, []int32{-1})},
		{"frontier-other-tiling", 5, enginePayloadWith(5, 3, 3, []int32{99})},
		{"frontier-count-lies", 5, lyingCount},
		{"wrong-epoch", 4, valid},
		{"wrong-tag", 5, wrongTag},
		{"truncated-cells", 5, valid[:60]},
	}
}()

const restoreEngineCorpus = "testdata/fuzz/FuzzRestoreEngine"

// restoreCorpusFile encodes one fuzz input the way `go test -fuzz`
// stores it.
func restoreCorpusFile(epoch uint64, payload []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\nuint64(%d)\n[]byte(%q)\n", epoch, payload))
}

// TestRestoreEngineCorpus: the checked-in corpus is exactly what
// restoreEngineSeeds generates (-update rewrites it).
func TestRestoreEngineCorpus(t *testing.T) {
	if *updateCorpus {
		if err := os.MkdirAll(restoreEngineCorpus, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range restoreEngineSeeds {
		path := filepath.Join(restoreEngineCorpus, s.name)
		want := restoreCorpusFile(s.epoch, s.payload)
		if *updateCorpus {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate the corpus)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s holds %q, want %q (run with -update)", path, got, want)
		}
	}
}

// FuzzRestoreEngine decodes arbitrary engine snapshot payloads at
// arbitrary epochs into a 4×6 run tiled 2×4. It must never panic nor
// allocate much more than the payload's own size. A nil error must
// mean the resumed iteration count is the epoch and fits an int, and
// any restored worklist must pass seedResumeFrontier's range check
// for the run's tiling.
func FuzzRestoreEngine(f *testing.F) {
	for _, s := range restoreEngineSeeds {
		f.Add(s.epoch, s.payload)
	}
	f.Fuzz(func(t *testing.T, epoch uint64, payload []byte) {
		g := sandpile.Center(100).Build(fuzzH, fuzzW, nil)
		clone := g.Clone()
		p := fuzzParams()
		d := p.withDefaults()
		st := &ckptState{}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := st.restore(payload, epoch, g, &p, d)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*uint64(len(payload)) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			if !g.Equal(clone) || st.iters != 0 || st.topples != 0 || st.absorbed != 0 || p.resumeFrontier != nil {
				t.Fatalf("rejected snapshot (%v) changed the grid or the run's state", err)
			}
			return
		}
		if st.iters < 0 || uint64(st.iters) != epoch {
			t.Fatalf("restored iteration %d from epoch %d", st.iters, epoch)
		}
		if len(p.resumeFrontier) > 0 {
			tl := grid.NewTiling(g.H(), g.W(), d.TileH, d.TileW)
			fr := grid.NewFrontier(tl.NumTiles(), 1)
			if !seedResumeFrontier(fr, tl, p.resumeFrontier, func(int) int { return 0 }) {
				t.Fatalf("restored worklist %v fails the range check of %d tiles", p.resumeFrontier, tl.NumTiles())
			}
		}
	})
}

// A CRC-valid snapshot whose iteration reads as -1 as an int, saved at
// the matching epoch 2⁶⁴−1, must fail the resume with a corruption
// error rather than resume at iteration -1 with a budget of
// MaxIters+1.
func TestResumeRejectsIterationMinusOne(t *testing.T) {
	store, err := ckpt.Open(t.TempDir(), "engine")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(math.MaxUint64, enginePayloadWith(math.MaxUint64, fuzzTileH, fuzzTileW, nil)); err != nil {
		t.Fatal(err)
	}
	p := fuzzParams()
	p.MaxIters = 5
	p.Ckpt = ckpt.NewCheckpointer(store, 64, true)
	g := sandpile.Center(100).Build(fuzzH, fuzzW, nil)
	clone := g.Clone()
	_, err = Run("lazy-sync", g, p)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from iteration -1: err = %v, want ckpt.ErrCorrupt", err)
	}
	if !g.Equal(clone) {
		t.Fatal("the rejected snapshot was written into the grid")
	}
}
