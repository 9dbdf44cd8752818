package mapreduce

// codec.go is the one byte encoding of a job's intermediate data. A
// Codec encodes keys and values; appendRun/readRun encode a whole
// sorted run with it. Fleet frames, spill files and external run files
// all carry runs in this one encoding, and Spill and External keep
// their files under one naming rule.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
)

// Codec is a job's key/value byte encoding. Append functions extend a
// buffer; Read functions consume one encoding from the front of a
// buffer and return the rest, so each Append must be the exact inverse
// of its Read. Every encoding takes at least one byte: decoders bound
// counts by it.
type Codec[K cmp.Ordered, V any] struct {
	AppendKey func([]byte, K) []byte
	ReadKey   func([]byte) (K, []byte, error)
	AppendVal func([]byte, V) []byte
	ReadVal   func([]byte) (V, []byte, error)
}

var stringIntCodec = Codec[string, int]{
	AppendKey: AppendString, ReadKey: ReadString,
	AppendVal: AppendInt, ReadVal: ReadInt,
}

var errCodec = errors.New("mapreduce: codec needs all four key/value functions")

// check is the one codec validator.
func (c *Codec[K, V]) check() error {
	if c.AppendKey == nil || c.ReadKey == nil || c.AppendVal == nil || c.ReadVal == nil {
		return errCodec
	}
	return nil
}

// prepareDir checks the codec a Spill or External writes its files
// with and creates their directory.
func prepareDir[K cmp.Ordered, V any](what, dir string, c *Codec[K, V]) error {
	if err := c.check(); err != nil {
		return fmt.Errorf("%w (%s)", err, what)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("mapreduce: %s dir: %w", what, err)
	}
	return nil
}

// jobFile is the naming rule of Spill and External files: dir, then
// the job name (default "job") with path separators, spaces and dots
// replaced by '-', then the suffix.
func jobFile(dir, name, suffix string) string {
	if name == "" {
		name = "job"
	}
	name = strings.Map(func(r rune) rune {
		switch r {
		case '/', '\\', ' ', '.':
			return '-'
		}
		return r
	}, name)
	return filepath.Join(dir, name+suffix)
}

// Decoding errors for runs and fleet frames: every count is checked
// against the bytes left before anything is allocated, and a run's
// offsets must span its values exactly, so corrupt bytes are an error,
// never a panic or an out-of-memory kill.
var (
	errMalformed = errors.New("mapreduce: malformed run or fleet frame")
	errCount     = fmt.Errorf("%w: count exceeds the bytes left", errMalformed)
	errOffsets   = fmt.Errorf("%w: run offsets do not span its values", errMalformed)
)

// readCount consumes a u32 count of items that each take at least unit
// bytes, rejecting a count the rest of buf cannot hold.
func readCount(buf []byte, unit int) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, buf, fmt.Errorf("%w: truncated count", errMalformed)
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > (len(buf)-4)/unit {
		return 0, buf, fmt.Errorf("%w: %d items in %d bytes", errCount, n, len(buf)-4)
	}
	return n, buf[4:], nil
}

// appendRun encodes one run: u32 nkeys | keys | u32 noffs | offs (u32
// each) | u32 nvals | vals — the layout of fleet frames, spill files
// and run-file chunks alike. Prefixes are not stored: readRun
// recomputes them from the keys, keeping the bytes independent of the
// accelerator encoding.
func (c *Codec[K, V]) appendRun(buf []byte, r *run[K, V]) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.keys)))
	for _, k := range r.keys {
		buf = c.AppendKey(buf, k)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.offs)))
	for _, off := range r.offs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(off))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.vals)))
	for _, v := range r.vals {
		buf = c.AppendVal(buf, v)
	}
	return buf
}

// readRun decodes one appendRun encoding into r, reusing the arrays of
// r's slices where they are big enough, and returns the rest of buf.
// Counts are bounded by the bytes left (every key and value encoding
// takes at least one byte), NaN keys are refused, and the offsets must
// start at 0, never decrease, number nkeys+1 (0 or 1 for an empty run)
// and end at nvals, so whatever it accepts the merge can walk.
func (c *Codec[K, V]) readRun(r *run[K, V], buf []byte) ([]byte, error) {
	nk, buf, err := readCount(buf, 1)
	if err != nil {
		return buf, err
	}
	r.keys, r.prefs = resize(r.keys, nk), resize(r.prefs, nk)
	for i := range r.keys {
		if r.keys[i], buf, err = c.ReadKey(buf); err != nil {
			return buf, fmt.Errorf("%w: key %d: %w", errMalformed, i, err)
		}
		if r.keys[i] != r.keys[i] {
			return buf, fmt.Errorf("%w: key %d: %w", errMalformed, i, ErrNaNKey)
		}
		r.prefs[i] = keyPrefix(r.keys[i])
	}
	no, buf, err := readCount(buf, 4)
	if err != nil {
		return buf, err
	}
	if no != nk+1 && (nk > 0 || no > 1) {
		return buf, fmt.Errorf("%w: %d offsets for %d keys", errOffsets, no, nk)
	}
	r.offs = resize(r.offs, no)
	last := int32(0)
	for i := range r.offs {
		r.offs[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		if r.offs[i] < last || (i == 0 && r.offs[i] != 0) {
			return buf, fmt.Errorf("%w: offset %d is %d", errOffsets, i, r.offs[i])
		}
		last = r.offs[i]
	}
	nv, buf, err := readCount(buf[4*no:], 1)
	if err != nil {
		return buf, err
	}
	if int(last) != nv {
		return buf, fmt.Errorf("%w: offsets end at %d, %d values", errOffsets, last, nv)
	}
	r.vals = resize(r.vals, nv)
	for i := range r.vals {
		if r.vals[i], buf, err = c.ReadVal(buf); err != nil {
			return buf, fmt.Errorf("%w: value %d: %w", errMalformed, i, err)
		}
	}
	return buf, nil
}

// resize returns s at length n, on its own array when that is big
// enough.
func resize[E any](s []E, n int) []E { return slices.Grow(s[:0], n)[:n] }

// AppendString / ReadString are the length-prefixed string codec.
func AppendString(buf []byte, s string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s)))
	return append(buf, s...)
}

// ReadString consumes one AppendString-encoded string.
func ReadString(buf []byte) (string, []byte, error) {
	if len(buf) < 4 {
		return "", nil, fmt.Errorf("mapreduce: short string header")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	buf = buf[4:]
	if n < 0 || n > len(buf) {
		return "", nil, fmt.Errorf("mapreduce: short string body")
	}
	return string(buf[:n]), buf[n:], nil
}

// AppendInt / ReadInt are the fixed 8-byte integer codec.
func AppendInt(buf []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
}

// ReadInt consumes one AppendInt-encoded integer.
func ReadInt(buf []byte) (int, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("mapreduce: short int")
	}
	return int(int64(binary.LittleEndian.Uint64(buf))), buf[8:], nil
}
