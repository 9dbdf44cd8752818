package ckpt

// frame.go is the repo's one CRC frame codec. PCK1 snapshot files,
// the PFR1 frames of internal/net and the PRN1 run files of the
// out-of-core MapReduce shuffle are all built from its frames; each
// names its magic, version and field widths in a Format.

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Format is one framed byte format. Every frame is
//
//	magic   [4]byte
//	version uint32
//	tag     TagLen bytes  a frame type or an epoch
//	length  LenLen bytes  payload bytes, at most MaxPayload
//	payload [length]byte
//	crc     uint32        CRC-32 (IEEE) over everything before it
//
// with every integer little-endian, so a frame is auditable with xxd.
type Format struct {
	Magic   string // four bytes
	Version uint32
	TagLen  int // bytes of the tag: 1 for a frame type, 8 for an epoch
	LenLen  int // bytes of the length: 4 or 8
}

const (
	// MaxPayload bounds a frame's payload, so a corrupt length field is
	// an error before it is a giant read. It is sized for snapshots: an
	// engine snapshot spends 4 bytes a cell, so 1 GiB holds a 16384²
	// grid. Append refuses a payload past it, so no writer produces a
	// frame its reader rejects.
	MaxPayload = 1 << 30
	// FirstChunk caps the body buffer Read allocates before any body
	// byte has arrived; past it the buffer doubles as bytes come in, so
	// a length claim alone never costs more than this.
	FirstChunk = 64 << 10
)

// Named frame errors: a failed Read carries exactly one of them.
var (
	// ErrTruncated: the bytes ended (or the stream errored) mid-frame —
	// a writer that died, a cut link.
	ErrTruncated = errors.New("truncated frame")
	// ErrCorrupt: bytes arrived but are not a valid frame (bad magic,
	// unsupported version, absurd length, CRC mismatch), or a frame's
	// payload does not decode (Dec).
	ErrCorrupt = errors.New("corrupt frame or payload")
)

func (f *Format) headerLen() int { return 8 + f.TagLen + f.LenLen }

// Append appends one frame carrying payload under tag to buf. A
// payload longer than MaxPayload is an error, and buf is returned
// unchanged.
func (f *Format) Append(buf []byte, tag uint64, payload []byte) ([]byte, error) {
	if len(payload) > MaxPayload {
		return buf, fmt.Errorf("ckpt: %s payload of %d bytes exceeds %d", f.Magic, len(payload), MaxPayload)
	}
	start := len(buf)
	buf = slices.Grow(buf, f.headerLen()+len(payload)+4)
	buf = append(buf, f.Magic...)
	buf = binary.LittleEndian.AppendUint32(buf, f.Version)
	buf = appendLE(buf, tag, f.TagLen)
	buf = appendLE(buf, uint64(len(payload)), f.LenLen)
	buf = append(buf, payload...)
	return binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf[start:])), nil
}

// Write writes one frame with a single Write call, so frames from
// concurrent writers never interleave on a stream.
func (f *Format) Write(w io.Writer, tag uint64, payload []byte) error {
	frame, err := f.Append(nil, tag, payload)
	if err == nil {
		_, err = w.Write(frame)
	}
	return err
}

// Read reads one frame and returns its tag and payload. The frame goes
// into buf's array when that is big enough, else into a new one, and
// the payload aliases it, never a copy: a caller that keeps payloads
// passes nil, and one that decodes each before the next read passes
// back the last payload. Short input is ErrTruncated, with the
// stream's own error still in the chain; malformed bytes are
// ErrCorrupt. A new body buffer grows only as bytes arrive, so a lying
// length field costs at most FirstChunk.
func (f *Format) Read(r io.Reader, buf []byte) (tag uint64, payload []byte, err error) {
	// The header is parsed and summed before the body overwrites it.
	head := buf[:0]
	if cap(head) < f.headerLen() {
		head = make([]byte, 0, f.headerLen())
	}
	head = head[:f.headerLen()]
	if got, err := io.ReadFull(r, head); err != nil {
		if got >= 4 && string(head[:4]) != f.Magic {
			return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:4])
		}
		return 0, nil, truncated(err)
	}
	if string(head[:4]) != f.Magic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:]); v != f.Version {
		return 0, nil, fmt.Errorf("%w: unsupported version %d, want %d", ErrCorrupt, v, f.Version)
	}
	n := readLE(head[8+f.TagLen:])
	if n > MaxPayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, MaxPayload)
	}
	tag, headSum := readLE(head[8:8+f.TagLen]), crc32.ChecksumIEEE(head)
	// payload + trailing CRC: one allocation up to FirstChunk, then
	// doubling as bytes arrive.
	total := int(n) + 4
	body := buf[:0]
	if cap(body) < min(total, FirstChunk) {
		body = make([]byte, 0, min(total, FirstChunk))
	}
	for len(body) < total {
		if len(body) == cap(body) {
			body = slices.Grow(body, min(total-len(body), len(body)))
		}
		got, err := io.ReadFull(r, body[len(body):min(total, cap(body))])
		body = body[:len(body)+got]
		if err != nil {
			return 0, nil, truncated(err)
		}
	}
	sum := crc32.Update(headSum, crc32.IEEETable, body[:n])
	if want := binary.LittleEndian.Uint32(body[n:]); want != sum {
		return 0, nil, fmt.Errorf("%w: CRC mismatch (got %08x, want %08x)", ErrCorrupt, sum, want)
	}
	return tag, body[:n], nil
}

// truncated wraps a stream error so it carries ErrTruncated while the
// cause stays unwrappable (a socket deadline must still read as a
// timeout).
func truncated(cause error) error {
	return fmt.Errorf("%w: %w", ErrTruncated, cause)
}

func appendLE(buf []byte, v uint64, width int) []byte {
	for i := 0; i < width; i++ {
		buf = append(buf, byte(v>>(8*i)))
	}
	return buf
}

func readLE(b []byte) uint64 {
	var v uint64
	for i := len(b) - 1; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}
