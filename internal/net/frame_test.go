package net

import (
	"bytes"
	"encoding/binary"
	"errors"
	"runtime"
	"testing"

	"repro/internal/ckpt"
)

// The frame layout as the tests see it: header bytes, the payload
// bound and the reader's first body chunk.
const (
	headerLen       = 4 + 4 + 1 + 4
	maxFramePayload = ckpt.MaxPayload
	firstChunk      = ckpt.FirstChunk
)

// frameHeader is a PFR1 header of the given type claiming n payload
// bytes, with nothing after it.
func frameHeader(typ uint8, n uint32) []byte {
	b := append([]byte(frameMagic), 0, 0, 0, 0, typ, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(b[4:], frameVersion)
	binary.LittleEndian.PutUint32(b[9:], n)
	return b
}

// TestReadFrameAllocatesWhatArrives: a 13-byte header claiming the
// largest payload allowed, sent before anything else — what any client
// of a coordinator's listener can send ahead of its hello — costs the
// reader well under 1 MB, not the 1 GiB the length field names.
func TestReadFrameAllocatesWhatArrives(t *testing.T) {
	head := frameHeader(FrameApp, maxFramePayload)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, _, err := readFrame(bytes.NewReader(head))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1<<20 {
		t.Fatalf("a bare header allocated %d bytes", got)
	}
}

// TestReadFrameLargePayload: a payload past the first chunk still
// arrives whole, and one within it costs a single body allocation.
func TestReadFrameLargePayload(t *testing.T) {
	for _, n := range []int{firstChunk - 4, firstChunk - 3, 3*firstChunk + 17} {
		p := bytes.Repeat([]byte{0x5A, 0xA5, 0x01}, n/3+1)[:n]
		var buf bytes.Buffer
		writeFrame(&buf, FrameApp, p)
		_, got, err := readFrame(bytes.NewReader(buf.Bytes()))
		if err != nil || !bytes.Equal(got, p) {
			t.Fatalf("%d-byte payload: err %v, equal %v", n, err, bytes.Equal(got, p))
		}
	}
	var buf bytes.Buffer
	writeFrame(&buf, FrameApp, make([]byte, firstChunk-4))
	frame := buf.Bytes()
	r := bytes.NewReader(frame)
	if allocs := testing.AllocsPerRun(20, func() {
		r.Reset(frame)
		readFrame(r)
	}); allocs > 2 { // the header and the body
		t.Fatalf("a frame of one chunk allocates %v times", allocs)
	}
}

// FuzzReadFrame feeds arbitrary bytes to the frame reader. It must
// never panic; every error carries exactly one of ErrPeerClosed,
// ErrTruncated and ErrCorrupt; and an accepted frame re-encodes
// through writeFrame to the bytes it was read from.
// testdata/fuzz/FuzzReadFrame holds crafted inputs: a bare header
// claiming the largest payload, a length past it, a close marker with
// a payload, and bit flips in each field.
func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	writeFrame(&buf, FrameApp, []byte("payload"))
	writeFrame(&buf, frameClose, nil)
	f.Add(buf.Bytes())
	f.Add(frameHeader(FrameApp, maxFramePayload))
	f.Fuzz(func(t *testing.T, b []byte) {
		typ, payload, err := readFrame(bytes.NewReader(b))
		if err != nil {
			named := 0
			for _, e := range []error{ErrPeerClosed, ErrTruncated, ErrCorrupt} {
				if errors.Is(err, e) {
					named++
				}
			}
			if named != 1 {
				t.Fatalf("error %q carries %d named errors, want 1", err, named)
			}
			return
		}
		var out bytes.Buffer
		if err := writeFrame(&out, typ, payload); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(b, out.Bytes()) {
			t.Fatalf("accepted frame re-encodes to %x, read from %x", out.Bytes(), b)
		}
	})
}
