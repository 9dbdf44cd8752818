package ghost

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	gonet "net"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/grid"
	pnet "repro/internal/net"
	"repro/internal/sandpile"
)

// wireBytes sends msgs over a real unix-socket Conn, closes it, and
// returns every byte that reached the other end: the PFR1 frames of
// msgs followed by the close marker.
func wireBytes(t *testing.T, msgs ...pnet.Msg) []byte {
	t.Helper()
	dir, err := os.MkdirTemp("", "wire")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "s")
	ln, err := gonet.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, _ := pnet.New("unix")
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(raw)
		got <- b
	}()
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	return <-got
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestRoundFrameGolden pins the PFR1 bytes of one ghost round on a
// real socket — the coordinator's step frame and the worker's report —
// against SHA-256s recorded before the frame codec moved into
// internal/ckpt.
func TestRoundFrameGolden(t *testing.T) {
	const want = "7220cf722b9f042699d4da25463221345b5adc4d342cc02737445538fde7e491"
	ge, win := fuzzGeom([]byte{1, 2, 3, 0xf, 9, 4, 7, 5, 2, 6})
	b := &block{}
	if _, err := b.serveRound(seedMsg(ge, 7, 3, win)); err != nil {
		t.Fatal(err)
	}
	bands := grid.New(win.H(), win.W())
	fillFrom(bands, []byte{3, 1, 4, 1, 5, 9, 2, 6})
	step := pnet.Msg{Type: msgStep, Payload: appendCells(appendHeader(nil, 7, 4), bands, ge.bands(), 0, 0)}
	report, err := b.serveRound(step)
	if err != nil {
		t.Fatal(err)
	}
	if got := sha(wireBytes(t, step, report)); got != want {
		t.Fatalf("ghost round frames: sha256 %s, want %s", got, want)
	}
}

// TestSnapshotFileGolden pins the PCK1 files a checkpointed ghost run
// writes, against SHA-256s recorded before the snapshot frame moved
// onto the shared frame codec.
func TestSnapshotFileGolden(t *testing.T) {
	want := map[string]string{
		"ghost.2.ckpt": "fa1c14928f982cce7de24e96c714c0f8ff3799666b53070207e9e7e6b596087b",
	}
	dir := t.TempDir()
	g := sandpile.Center(900).Build(16, 12, nil)
	if _, err := New(g, WithRanks(2), WithWidth(2), WithMaxIters(6),
		WithCheckpoint(ghostCheckpointer(t, dir, 2))).Run(); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	got := map[string]string{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(f)] = sha(b)
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
