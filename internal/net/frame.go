// Package net is the multi-process transport layer: length-prefixed,
// CRC-framed messages over TCP or Unix sockets (or an in-process
// channel pair — the fast path), plus the coordinator/worker fleet
// protocol built on top: worker registration, heartbeat leases,
// death detection, respawn supervision, and reconnection with capped
// exponential backoff. It is what turns the simulated ranks of the
// ghost and mapreduce substrates into real OS processes whose SIGKILL
// is a real lost peer.
//
// Frames are the ckpt package's CRC frames (magic, version, CRC-32,
// little-endian fixed-width integers), written and read by the same
// code as snapshot files, so a frame is auditable with xxd and
// corruption is always a named error, never a silent misparse. A
// clean shutdown sends an explicit close marker; a peer that vanishes
// mid-frame (SIGKILL, cut cable) surfaces as ErrTruncated — the two
// are never conflated.
package net

import (
	"errors"
	"io"

	"repro/internal/ckpt"
)

// Frame layout (ckpt.Format; little-endian):
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
)

var frameFormat = ckpt.Format{Magic: frameMagic, Version: frameVersion, TagLen: 1, LenLen: 4}

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
	ErrTruncated = ckpt.ErrTruncated
	// ErrCorrupt: bad magic, unsupported version, absurd length, or a
	// CRC mismatch — bytes arrived but they are not a valid frame.
	ErrCorrupt = ckpt.ErrCorrupt
)

// writeFrame assembles and writes one frame as a single Write call.
func writeFrame(w io.Writer, typ uint8, payload []byte) error {
	return frameFormat.Write(w, uint64(typ), payload)
}

// readFrame reads one frame. A close marker returns ErrPeerClosed; any
// short read returns ErrTruncated; malformed bytes return ErrCorrupt.
func readFrame(r io.Reader) (uint8, []byte, error) { return readFrameInto(r, nil) }

// readFrameInto is readFrame into buf's array when it is big enough
// (ckpt.Format.Read).
func readFrameInto(r io.Reader, buf []byte) (uint8, []byte, error) {
	typ, payload, err := frameFormat.Read(r, buf)
	if err == nil && typ == uint64(frameClose) {
		return frameClose, nil, ErrPeerClosed
	}
	return uint8(typ), payload, err
}
