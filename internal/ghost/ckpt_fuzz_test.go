package ghost

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/sandpile"
)

// The fuzzed restore decodes into a 4×6 grid.
const fuzzH, fuzzW = 4, 6

// ghostPayloadWith builds a ghost snapshot payload by hand: any tag,
// round and declared size, followed by h*w cells.
func ghostPayloadWith(tag uint32, round uint64, h, w uint32) []byte {
	var e ckpt.Enc
	e.U32(tag)
	e.U64(round)
	e.U64(17) // topples
	e.U32(h)
	e.U32(w)
	for i := 0; i < int(h)*int(w); i++ {
		e.U32(uint32(i % 5))
	}
	return e.Bytes()
}

type restoreSeed struct {
	name    string
	epoch   uint64
	payload []byte
}

// restoreGhostSeeds is the checked-in corpus of FuzzRestoreGhost.
// `go test ./internal/ghost -run TestRestoreGhostCorpus -update`
// rewrites testdata/fuzz/FuzzRestoreGhost from this table.
var restoreGhostSeeds = func() []restoreSeed {
	valid := ghostPayloadWith(ghostPayload, 5, fuzzH, fuzzW)
	return []restoreSeed{
		{"snapshot", 5, valid},
		{"round-zero", 0, ghostPayloadWith(ghostPayload, 0, fuzzH, fuzzW)},
		{"round-minus-one", math.MaxUint64, ghostPayloadWith(ghostPayload, math.MaxUint64, fuzzH, fuzzW)},
		{"round-past-maxint", 1 << 63, ghostPayloadWith(ghostPayload, 1<<63, fuzzH, fuzzW)},
		{"wrong-epoch", 4, valid},
		{"wrong-tag", 5, ghostPayloadWith(ghostPayload+1, 5, fuzzH, fuzzW)},
		{"other-size", 5, ghostPayloadWith(ghostPayload, 5, fuzzW, fuzzH)},
		{"size-lies", 5, ghostPayloadWith(ghostPayload, 5, math.MaxUint32, math.MaxUint32)[:28]},
		{"truncated-cells", 5, valid[:60]},
		{"truncated-header", 5, valid[:10]},
	}
}()

const restoreGhostCorpus = "testdata/fuzz/FuzzRestoreGhost"

// restoreCorpusFile encodes one fuzz input the way `go test -fuzz`
// stores it.
func restoreCorpusFile(epoch uint64, payload []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\nuint64(%d)\n[]byte(%q)\n", epoch, payload))
}

// TestRestoreGhostCorpus: the checked-in corpus is exactly what
// restoreGhostSeeds generates (-update rewrites it).
func TestRestoreGhostCorpus(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(restoreGhostCorpus, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range restoreGhostSeeds {
		path := filepath.Join(restoreGhostCorpus, s.name)
		want := restoreCorpusFile(s.epoch, s.payload)
		if *updateGolden {
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

// FuzzRestoreGhost decodes arbitrary ghost snapshot payloads at
// arbitrary epochs into a 4×6 pile. It must never panic nor allocate
// much more than the payload's own size; an error must leave the pile
// untouched (truncated-cells starts with valid cells), and a nil error
// must mean the resumed round is the epoch and fits an int.
func FuzzRestoreGhost(f *testing.F) {
	for _, s := range restoreGhostSeeds {
		f.Add(s.epoch, s.payload)
	}
	f.Fuzz(func(t *testing.T, epoch uint64, payload []byte) {
		g := sandpile.Center(100).Build(fuzzH, fuzzW, nil)
		clone := g.Clone()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round, _, err := decodeGhost(payload, epoch, g)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10+4*uint64(len(payload)) {
			t.Fatalf("a %d-byte payload allocated %d bytes", len(payload), grew)
		}
		if err != nil {
			if !g.Equal(clone) {
				t.Fatalf("rejected snapshot (%v) was written into the grid", err)
			}
			return
		}
		if round < 0 || uint64(round) != epoch {
			t.Fatalf("restored round %d from epoch %d", round, epoch)
		}
	})
}

// A CRC-valid snapshot whose round reads as -1 as an int, saved at the
// matching epoch 2⁶⁴−1, must fail the resume with a corruption error
// rather than resume at round -1 and report two rounds too few.
func TestGhostResumeRejectsRoundMinusOne(t *testing.T) {
	store, err := ckpt.Open(t.TempDir(), "ghost")
	if err != nil {
		t.Fatal(err)
	}
	const n = 16
	if err := store.Save(math.MaxUint64, ghostPayloadWith(ghostPayload, math.MaxUint64, n, n)); err != nil {
		t.Fatal(err)
	}
	g := sandpile.Center(900).Build(n, n, nil)
	clone := g.Clone()
	_, err = New(g, WithRanks(2), WithWidth(2),
		WithCheckpoint(ckpt.NewCheckpointer(store, 64, true))).Run()
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from round -1: err = %v, want ckpt.ErrCorrupt", err)
	}
	if !g.Equal(clone) {
		t.Fatal("the rejected snapshot was written into the grid")
	}
}
