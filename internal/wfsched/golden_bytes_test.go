package wfsched

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"
)

// TestSnapshotFileGolden pins the PCK1 files a checkpointed Tab 2 sweep
// writes, against SHA-256s recorded before the snapshot frame moved
// onto the shared frame codec.
func TestSnapshotFileGolden(t *testing.T) {
	want := map[string]string{
		"sweep.200.ckpt": "0523d3f0853c186fd1f636ae225e72af29fb04c65894d500c914f46f70e60766",
		"sweep.400.ckpt": "823140d68ac568246a2b9bc5b9e1733ea5b516242e39301e53b23cfee9888d06",
	}
	dir := t.TempDir()
	if _, err := EvaluateFractionsCheckpointed(smallScenario(), paretoChoices(), sweepCheckpointer(t, dir, 128), 100); err != nil {
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
