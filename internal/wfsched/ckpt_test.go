package wfsched

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/ckpt"
)

func sweepCheckpointer(t *testing.T, dir string, every int64) *ckpt.Checkpointer {
	t.Helper()
	store, err := ckpt.Open(dir, "sweep")
	if err != nil {
		t.Fatal(err)
	}
	return ckpt.NewCheckpointer(store, every, true)
}

// A sweep interrupted mid-way (simulated by running only its first
// chunks through the persistence path, then re-running) must produce
// results identical to the uninterrupted sweep, with the restored
// prefix byte-equal rather than re-simulated.
func TestCheckpointedSweepMatchesUninterrupted(t *testing.T) {
	sc := smallScenario()
	choices := paretoChoices()
	want := EvaluateFractions(sc, choices)

	// Uninterrupted checkpointed run: identical output.
	dir := t.TempDir()
	got, err := EvaluateFractionsCheckpointed(sc, choices, sweepCheckpointer(t, dir, 128), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("results = %d, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].Outcome != want[i].Outcome {
			t.Fatalf("result %d diverged: %+v vs %+v", i, got[i].Outcome, want[i].Outcome)
		}
	}

	// The run above saved intermediate prefixes; a fresh call resumes
	// from the newest one and still matches.
	resumed, err := EvaluateFractionsCheckpointed(sc, choices, sweepCheckpointer(t, dir, 128), 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := range resumed {
		if resumed[i].Outcome != want[i].Outcome {
			t.Fatalf("resumed result %d diverged", i)
		}
		if len(resumed[i].Fractions) != len(want[i].Fractions) {
			t.Fatalf("resumed result %d missing fractions", i)
		}
		for l := range resumed[i].Fractions {
			if resumed[i].Fractions[l] != want[i].Fractions[l] {
				t.Fatalf("resumed result %d fractions %v, want %v",
					i, resumed[i].Fractions, want[i].Fractions)
			}
		}
	}
}

// A snapshot from a differently-shaped sweep is rejected.
func TestCheckpointedSweepShapeMismatch(t *testing.T) {
	sc := smallScenario()
	dir := t.TempDir()
	if _, err := EvaluateFractionsCheckpointed(sc, paretoChoices(), sweepCheckpointer(t, dir, 64), 64); err != nil {
		t.Fatal(err)
	}
	small := [][]float64{{0, 1}, {0, 1}}
	if _, err := EvaluateFractionsCheckpointed(sc, small, sweepCheckpointer(t, dir, 64), 64); err == nil {
		t.Fatal("mismatched sweep shape resumed without error")
	}
}

// nil checkpointer degrades to the plain sweep.
func TestCheckpointedSweepNilCheckpointer(t *testing.T) {
	sc := smallScenario()
	choices := [][]float64{{0, 1}, {0, 1}, {0, 1}}
	want := EvaluateFractions(sc, choices)
	got, err := EvaluateFractionsCheckpointed(sc, choices, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i].Outcome != want[i].Outcome {
			t.Fatalf("result %d diverged", i)
		}
	}
}

// sweepPayload builds a sweep snapshot payload by hand: the tag, the
// two counts and no outcomes.
func sweepPayload(total, done uint64) []byte {
	var e ckpt.Enc
	e.U32(wfPayload)
	e.U64(total)
	e.U64(done)
	return e.Bytes()
}

// A CRC-valid snapshot whose prefix count reads as -1 as an int, saved
// at the matching epoch 2⁶⁴−1, must fail the resume with a corruption
// error rather than crash a sweep worker with an index out of range.
func TestCheckpointedSweepRejectsNegativePrefix(t *testing.T) {
	sc := smallScenario()
	choices := [][]float64{{0, 1}, {0, 1}}
	store, err := ckpt.Open(t.TempDir(), "sweep")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(math.MaxUint64, sweepPayload(4, math.MaxUint64)); err != nil {
		t.Fatal(err)
	}
	_, err = EvaluateFractionsCheckpointed(sc, choices, ckpt.NewCheckpointer(store, 64, true), 64)
	if !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resume from a negative prefix: err = %v, want ckpt.ErrCorrupt", err)
	}
}

// FuzzRestoreSweep decodes arbitrary snapshot payloads at arbitrary
// epochs into a sweep of n%16 placements. It must never panic; a nil
// error must mean a prefix 0 <= done <= n, and re-encoding that prefix
// must give back the bytes it was decoded from. testdata/fuzz holds
// crafted inputs: the negative prefix, counts past MaxInt, a prefix
// longer than the sweep, a wrong epoch, a wrong tag and truncations.
func FuzzRestoreSweep(f *testing.F) {
	prefix := make([]FractionResult, 3)
	for i := range prefix {
		prefix[i].Outcome = Outcome{Makespan: float64(i) + 0.5, CO2: 1e3, TasksLocal: i, Transfers: -i}
	}
	f.Add(uint64(3), uint8(5), encodeSweep(5, prefix))
	f.Add(uint64(0), uint8(0), encodeSweep(0, nil))
	f.Add(uint64(math.MaxUint64), uint8(4), sweepPayload(4, math.MaxUint64))
	f.Fuzz(func(t *testing.T, epoch uint64, n uint8, payload []byte) {
		results := make([]FractionResult, n%16)
		done, err := decodeSweep(epoch, payload, results)
		if err != nil {
			return
		}
		if done < 0 || done > len(results) {
			t.Fatalf("decoded a prefix of %d placements of %d with no error", done, len(results))
		}
		if got := encodeSweep(len(results), results[:done]); !bytes.Equal(got, payload[:len(got)]) {
			t.Fatalf("re-encoded prefix differs from the payload:\n got %x\nfrom %x", got, payload)
		}
	})
}
