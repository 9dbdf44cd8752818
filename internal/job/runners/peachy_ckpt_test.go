package runners

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/job"
)

// hugeDoneSet is a 20-byte done-set snapshot that claims 2^40
// experiments, at epoch 2^40, then holds one 4-byte ID.
func hugeDoneSet() (payload []byte, epoch uint64) {
	const n = 1 << 40
	var e ckpt.Enc
	e.U32(peachyPayload)
	e.U64(n)
	e.Str("E1__")
	return e.Bytes(), n
}

// TestDecodeDoneRejectsHugeCount: a count the payload cannot hold is
// corrupt before anything is sized from it, both when decoded alone
// and when a resumed peachy job loads it from its store.
func TestDecodeDoneRejectsHugeCount(t *testing.T) {
	payload, epoch := hugeDoneSet()
	if len(payload) != 20 {
		t.Fatalf("payload is %d bytes, want 20", len(payload))
	}
	if _, err := decodeDone(payload, epoch); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("decodeDone = %v, want ckpt.ErrCorrupt", err)
	}

	store, err := ckpt.Open(t.TempDir(), "peachy")
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Save(epoch, payload); err != nil {
		t.Fatal(err)
	}
	ctx := job.WithEnv(context.Background(), job.Env{Ckpt: ckpt.NewCheckpointer(store, 1, true)})
	spec := job.Spec{Kind: "peachy", Tenant: "t", Params: []byte(`{"experiments":["E1"],"quick":true}`)}
	if _, err := (&Peachy{}).Run(ctx, spec, nil); !errors.Is(err, ckpt.ErrCorrupt) {
		t.Fatalf("resumed Run = %v, want ckpt.ErrCorrupt", err)
	}
}

// doneSetSeeds is the checked-in FuzzDecodeDone corpus, one file per
// entry under testdata/fuzz/FuzzDecodeDone: valid done sets, then each
// way a payload can be corrupt. `go test ./internal/job/runners -run
// TestDecodeDoneCorpus -update` rewrites the files from this table.
var doneSetSeeds = []struct {
	name    string
	payload []byte
	epoch   uint64
}{
	{"empty_set", encodeDone(nil), 0},
	{"one", encodeDone([]string{"E1"}), 1},
	{"three", encodeDone([]string{"E4", "E9", "E11"}), 3},
	{"empty_id", encodeDone([]string{""}), 1},
	{"huge_count", func() []byte { p, _ := hugeDoneSet(); return p }(), 1 << 40},
	{"count_past_bytes", encodeDone([]string{"E1"})[:12], 1},
	{"epoch_mismatch", encodeDone([]string{"E1", "E2"}), 1},
	{"wrong_tag", append(binary.LittleEndian.AppendUint32(nil, 4), encodeDone(nil)[4:]...), 0},
	{"short_header", encodeDone(nil)[:7], 0},
	{"empty_payload", nil, 0},
	{"id_cut_off", encodeDone([]string{"E11"})[:17], 1},
	{"id_length_huge", append(encodeDone([]string{"E1"})[:12], 0xff, 0xff, 0xff, 0x7f, 'E', '1'), 1},
	{"trailing_byte", append(encodeDone([]string{"E1"}), 0), 1},
}

const doneSetCorpus = "testdata/fuzz/FuzzDecodeDone"

// TestDecodeDoneCorpus: the checked-in corpus is exactly what
// doneSetSeeds generates (-update rewrites it).
func TestDecodeDoneCorpus(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(doneSetCorpus, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range doneSetSeeds {
		path := filepath.Join(doneSetCorpus, s.name)
		want := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nuint64(%d)\n", s.payload, s.epoch))
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

// FuzzDecodeDone feeds arbitrary done-set snapshots, at the given epoch
// and at the one the payload claims. decodeDone must never panic,
// must allocate no more than a small multiple of the payload's length,
// must refuse a payload only with ckpt.ErrCorrupt, and must accept
// exactly what encodeDone writes: an accepted payload re-encodes to
// itself.
func FuzzDecodeDone(f *testing.F) {
	f.Fuzz(func(t *testing.T, payload []byte, epoch uint64) {
		epochs := []uint64{epoch}
		if len(payload) >= 12 {
			epochs = append(epochs, binary.LittleEndian.Uint64(payload[4:]))
		}
		for _, epoch := range epochs {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ids, err := decodeDone(payload, epoch)
			runtime.ReadMemStats(&after)
			// An ID's string header takes 16 bytes for its at least 4
			// payload bytes, and its text one per byte; the slack covers
			// size classes and an error's text.
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*uint64(len(payload))+8<<10 {
				t.Fatalf("decoding %d bytes allocated %d", len(payload), grew)
			}
			if err != nil {
				if !errors.Is(err, ckpt.ErrCorrupt) {
					t.Fatalf("decodeDone(%q, %d) = %v, want ckpt.ErrCorrupt", payload, epoch, err)
				}
				continue
			}
			if uint64(len(ids)) != epoch {
				t.Fatalf("epoch %d decoded %d IDs", epoch, len(ids))
			}
			if re := encodeDone(ids); !slices.Equal(re, payload) {
				t.Fatalf("decoded %q re-encodes to %q", payload, re)
			}
			again, err := decodeDone(encodeDone(ids), uint64(len(ids)))
			if err != nil || !slices.Equal(again, ids) {
				t.Fatalf("round trip of %q = %q, %v", ids, again, err)
			}
		}
	})
}
