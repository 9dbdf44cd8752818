// Package net is the multi-process transport layer: length-prefixed,
// CRC-framed messages over TCP or Unix sockets (or an in-process
// channel pair — the fast path), plus the coordinator/worker fleet
// protocol built on top: worker registration, heartbeat leases,
// death detection, respawn supervision, and reconnection with capped
// exponential backoff. It is what turns the simulated ranks of the
// ghost and mapreduce substrates into real OS processes whose SIGKILL
// is a real lost peer.
//
// The wire format deliberately reuses the ckpt frame discipline
// (magic, version, CRC-32, little-endian fixed-width integers) so a
// frame is auditable with xxd and corruption is always a named error,
// never a silent misparse. A clean shutdown sends an explicit close
// marker; a peer that vanishes mid-frame (SIGKILL, cut cable)
// surfaces as ErrTruncated — the two are never conflated.
package net

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"slices"
)

// Frame layout (little-endian):
//
//	magic   [4]byte "PFR1"
//	version uint32  (1)
//	type    uint8   (control < FrameApp, application >= FrameApp)
//	length  uint32  payload bytes
//	payload [length]byte
//	crc     uint32  CRC-32 (IEEE) over everything before it
const (
	frameMagic   = "PFR1"
	frameVersion = 1
	headerLen    = 4 + 4 + 1 + 4
	// maxFramePayload bounds a frame so a corrupt length field cannot
	// trigger a giant allocation.
	maxFramePayload = 1 << 28
	// firstChunk caps the body buffer readFrame allocates before any
	// body byte has arrived; past it the buffer doubles as bytes come
	// in, so a header's length claim alone never costs more than this.
	firstChunk = 64 << 10
)

// Control frame types. Application messages must use types >= FrameApp;
// the rest of the byte space belongs to the protocol.
const (
	frameClose     uint8 = 0 // explicit close marker, empty payload
	frameHello     uint8 = 1 // worker -> coordinator registration
	frameWelcome   uint8 = 2 // coordinator -> worker lease grant
	frameHeartbeat uint8 = 3 // either direction, proves liveness
	// FrameApp is the first frame type available to applications.
	FrameApp uint8 = 16
)

// Named transport errors. Every failure mode of a read has exactly one
// of these in its chain, so callers can switch on errors.Is.
var (
	// ErrPeerClosed: the peer sent the explicit close marker — a clean,
	// intentional shutdown.
	ErrPeerClosed = errors.New("net: peer closed the connection")
	// ErrTruncated: the stream ended (or errored) mid-frame without a
	// close marker — the peer died or the link was cut.
	ErrTruncated = errors.New("net: truncated frame")
	// ErrCorrupt: bad magic, unsupported version, absurd length, or a
	// CRC mismatch — bytes arrived but they are not a valid frame.
	ErrCorrupt = errors.New("net: corrupt frame")
)

// writeFrame assembles and writes one frame as a single Write call.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	buf := make([]byte, 0, headerLen+len(payload)+4)
	buf = append(buf, frameMagic...)
	buf = binary.LittleEndian.AppendUint32(buf, frameVersion)
	buf = append(buf, typ)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(payload)))
	buf = append(buf, payload...)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(buf))
	_, err := w.Write(buf)
	return err
}

// readFrame reads one frame. A close marker returns ErrPeerClosed; any
// short read returns ErrTruncated; malformed bytes return ErrCorrupt.
func readFrame(r io.Reader) (uint8, []byte, error) {
	head := make([]byte, headerLen)
	if _, err := io.ReadFull(r, head); err != nil {
		return 0, nil, truncated(err)
	}
	if string(head[:4]) != frameMagic {
		return 0, nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, head[:4])
	}
	if v := binary.LittleEndian.Uint32(head[4:8]); v != frameVersion {
		return 0, nil, fmt.Errorf("%w: version %d, want %d", ErrCorrupt, v, frameVersion)
	}
	typ := head[8]
	n := binary.LittleEndian.Uint32(head[9:13])
	if n > maxFramePayload {
		return 0, nil, fmt.Errorf("%w: payload length %d exceeds %d", ErrCorrupt, n, maxFramePayload)
	}
	// payload + trailing CRC, allocated as it arrives: one allocation
	// up to firstChunk, then doubling.
	total := int(n) + 4
	body := make([]byte, 0, min(total, firstChunk))
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
	sum := crc32.ChecksumIEEE(head)
	sum = crc32.Update(sum, crc32.IEEETable, body[:n])
	if got := binary.LittleEndian.Uint32(body[n:]); got != sum {
		return 0, nil, fmt.Errorf("%w: CRC %08x, want %08x", ErrCorrupt, got, sum)
	}
	if typ == frameClose {
		return typ, nil, ErrPeerClosed
	}
	return typ, body[:n:n], nil
}

// truncated wraps a stream error so it carries ErrTruncated in its
// chain while keeping the original cause unwrappable (socket deadline
// errors must stay reachable for the ErrTimeout mapping).
func truncated(cause error) error {
	return fmt.Errorf("%w: %w", ErrTruncated, cause)
}
