package net

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"repro/internal/ckpt"
)

// frameGoldens are the SHA-256s of PFR1 frames, recorded before the
// frame codec moved into internal/ckpt. A change here means a fleet
// worker built from an older tree can no longer talk to this one.
var frameGoldens = map[string]string{
	"close":     "957f86867019c6972fd5b20a08490d31c05c4424a5d4a6d73be21ea1320ab4f8",
	"hello":     "27da8992b8048da9e88f24c87bd11bbc9c3b5c4a8c1b3ef8d8850b09aa680d33",
	"welcome":   "e4181ee593d7d76d70de7171528b4997190c43734b5ec51f30e4424bd32f9a6b",
	"heartbeat": "b4e7754162d813502f6eacec56828a258a5972e0b87627c7aa3365ed6eeedefc",
	"app-large": "6e1806e90e2dde1a24f0fceffe44791a79dc0f0b558e294c78e84fcfbe555751",
}

// TestFrameGolden pins the bytes writeFrame puts on the wire for each
// control frame and for an application frame past the reader's first
// chunk. The hello pid is fixed; the real one comes from os.Getpid.
func TestFrameGolden(t *testing.T) {
	var hello, welcome ckpt.Enc
	hello.Str("mapreduce/2")
	hello.I64(3)
	hello.I64(4242)
	welcome.I64(500)
	large := make([]byte, 3<<16+17)
	for i := range large {
		large[i] = byte(i*31 + i>>8)
	}
	frames := map[string]struct {
		typ     uint8
		payload []byte
	}{
		"close":     {frameClose, nil},
		"hello":     {frameHello, hello.Bytes()},
		"welcome":   {frameWelcome, welcome.Bytes()},
		"heartbeat": {frameHeartbeat, nil},
		"app-large": {FrameApp + 3, large},
	}
	for name, f := range frames {
		var buf bytes.Buffer
		if err := writeFrame(&buf, f.typ, f.payload); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); got != frameGoldens[name] {
			t.Errorf("%s frame: sha256 %s, want %s", name, got, frameGoldens[name])
		}
	}
}
