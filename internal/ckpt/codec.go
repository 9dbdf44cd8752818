package ckpt

import (
	"encoding/binary"
	"math"
)

// Enc is a tiny append-based encoder for snapshot payloads. All
// integers are little-endian fixed-width — snapshots trade a few
// bytes for a format trivially auditable with xxd.
type Enc struct{ buf []byte }

// U8 appends one byte.
func (e *Enc) U8(v uint8) { e.buf = append(e.buf, v) }

// U32 appends a fixed 4-byte unsigned integer.
func (e *Enc) U32(v uint32) { e.buf = binary.LittleEndian.AppendUint32(e.buf, v) }

// U64 appends a fixed 8-byte unsigned integer.
func (e *Enc) U64(v uint64) { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }

// I64 appends a fixed 8-byte signed integer.
func (e *Enc) I64(v int64) { e.U64(uint64(v)) }

// F64 appends an IEEE-754 double, bit-exact.
func (e *Enc) F64(v float64) { e.U64(math.Float64bits(v)) }

// Str appends a length-prefixed string.
func (e *Enc) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
}

// U32s appends a length-prefixed []uint32.
func (e *Enc) U32s(vs []uint32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(v)
	}
}

// I32s appends a length-prefixed []int32.
func (e *Enc) I32s(vs []int32) {
	e.U32(uint32(len(vs)))
	for _, v := range vs {
		e.U32(uint32(v))
	}
}

// Bytes returns the encoded payload.
func (e *Enc) Bytes() []byte { return e.buf }

// Dec is the matching sticky-error decoder: after the first short
// read every subsequent read returns zero values and Err() reports
// ErrCorrupt, so payload decoders check the error once at the end.
type Dec struct {
	buf []byte
	bad bool
}

// NewDec wraps a payload for decoding.
func NewDec(buf []byte) *Dec { return &Dec{buf: buf} }

func (d *Dec) take(n int) []byte {
	if d.bad || len(d.buf) < n {
		d.bad = true
		return nil
	}
	b := d.buf[:n]
	d.buf = d.buf[n:]
	return b
}

// U8 reads one byte.
func (d *Dec) U8() uint8 {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a fixed 4-byte unsigned integer.
func (d *Dec) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a fixed 8-byte unsigned integer.
func (d *Dec) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a fixed 8-byte signed integer.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads an IEEE-754 double.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }

// Str reads a length-prefixed string.
func (d *Dec) Str() string {
	n := int(d.U32())
	if d.bad || n < 0 || n > len(d.buf) {
		d.bad = true
		return ""
	}
	return string(d.take(n))
}

// U32s reads a length-prefixed []uint32.
func (d *Dec) U32s() []uint32 {
	n := int(d.U32())
	if d.bad || n < 0 || n*4 > len(d.buf) {
		d.bad = true
		return nil
	}
	vs := make([]uint32, n)
	for i := range vs {
		vs[i] = d.U32()
	}
	return vs
}

// I32s reads a length-prefixed []int32.
func (d *Dec) I32s() []int32 {
	n := int(d.U32())
	if d.bad || n < 0 || n*4 > len(d.buf) {
		d.bad = true
		return nil
	}
	vs := make([]int32, n)
	for i := range vs {
		vs[i] = int32(d.U32())
	}
	return vs
}

// Rest returns whatever remains undecoded.
func (d *Dec) Rest() []byte {
	if d.bad {
		return nil
	}
	return d.buf
}

// Err reports ErrCorrupt if any read ran past the payload end.
func (d *Dec) Err() error {
	if d.bad {
		return ErrCorrupt
	}
	return nil
}
