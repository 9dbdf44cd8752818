package engine

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/sandpile"
)

// TestSnapshotFileGolden pins the PCK1 files a checkpointed engine run
// writes, against SHA-256s recorded before the snapshot frame moved
// onto the shared frame codec.
func TestSnapshotFileGolden(t *testing.T) {
	want := map[string]string{
		"engine.3.ckpt": "98e43cdd8bf05281da13e51668ca59478f07be5d5767821ae32f8a9506e705ad",
		"engine.6.ckpt": "4a7a99e665309c2f416f3c4af6c93b61684207817051d8987285d9b8ea80c594",
	}
	dir := t.TempDir()
	p := ckptParams()
	p.MaxIters = 9
	p.Ckpt = openCheckpointer(t, dir, 3)
	if _, err := Run("lazy-sync", sandpile.Center(4000).Build(40, 40, nil), p); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	got := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[filepath.Base(f)] = hex.EncodeToString(sum[:])
	}
	if len(got) != len(want) {
		t.Errorf("snapshot files %v, want %v", got, want)
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: sha256 %s, want %s", name, h, want[name])
		}
	}
}
