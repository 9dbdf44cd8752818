package ghost

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	gonet "net"
	"os"
	"path/filepath"
	"testing"

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

// TestWindowFrameGolden pins the PFR1 bytes of the ghost/3 frames on a
// real socket: a seed with its neighbour addresses, a grant, a link, a
// halo and a window report. A change here means a fleet worker built
// from an older tree can no longer talk to this one.
func TestWindowFrameGolden(t *testing.T) {
	const want = "c7d456246107f8299fbad5d318eef7dd7dd4753c0c3fdc52f6c3526ab02e784e"
	s, win := fuzzSeed([]byte{1, 2, 3, 0xf, 9, 4, 7, 5, 2, 6})
	_, in, _ := s.halo(south)
	work := []roundWork{{changes: 5, redundant: 12}, {changes: 0, redundant: 9}}
	frames := []pnet.Msg{
		{Type: msgSeed, Payload: appendSeed(nil, s, win, 0, 0)},
		grantMsg(7, 5, 64),
		linkMsg(7, 3, 13),
		{Type: msgHalo, Payload: appendRect(appendHeader(nil, 7, 4), win, in, 0, 0)},
		{Type: msgReport, Payload: appendReport(nil, 7, 5, work, win, s.owned())},
	}
	if got := sha(wireBytes(t, frames...)); got != want {
		t.Fatalf("ghost window frames: sha256 %s, want %s", got, want)
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
