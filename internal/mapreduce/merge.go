package mapreduce

// merge.go is the shuffle's data plane: sorted, span-compressed runs,
// their wire and spill encoding, and the k-way merge over them. Each
// map task hands the reduce phase one run per partition, built by the
// task's collector (collect.go: pairs hash-grouped by key as they are
// emitted, then only the distinct keys sorted, combiner applied per
// key), and the shuffle merges a partition's runs in a single
// streaming pass that feeds equal keys directly into the reducer. The
// map side groups through a hash map; the reduce side never does, and
// nothing is globally re-sorted — per-run key order plus a stable
// merge is the whole reduce side, exactly Hadoop's sort-merge design.
//
// Two representation choices carry the performance:
//
//   - Runs are span-compressed: distinct ascending keys, each owning a
//     contiguous slice of a shared values array. The merge moves one
//     span (a bulk append) per step instead of touching every pair, so
//     per-pair work — and the cache miss of chasing every key's string
//     bytes — drops out of the shuffle entirely.
//   - Every key carries an 8-byte order-preserving prefix. For short
//     strings and all integer widths the prefix is EXACT: prefix
//     equality proves key equality, so both the map-side key sort and
//     the merge run on nothing but inline uint64 compares — no string
//     bytes are touched at all unless keys are 8+ characters and share
//     their first 7.
//
// The merge itself comes in two shapes. For small fan-in (the common
// case: one run per map task) a linear scan of the cursor heads finds
// each group — k inline integer compares beat a heap's O(log k)
// generic-function comparisons by a wide margin on modern cores. A
// binary min-heap of cursors takes over past scanMaxRuns, restoring
// O(log k) per step for very wide merges.
//
// Stability argument (why outputs are byte-identical to the reference
// hash-group shuffle): within a run, a key's values keep emission
// order because the collector places them with a stable counting
// sort; across runs, the merge drains a key's spans in task-index
// order, so a group's values appear in (map-task, emission) order —
// the same order the reference shuffle produces by concatenating task
// outputs before grouping.

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
)

// Prefix exactness classes: what a prefix tie proves about the keys.
const (
	// prefExactTotal: the prefix is a bijective order-embedding, so
	// prefix equality alone proves key equality (all integer widths).
	prefExactTotal = iota
	// prefExactMarked: prefix equality proves key equality unless the
	// prefix's low byte is the 0xFF saturation marker (strings — see
	// keyPrefix for the 7-bytes-plus-length encoding).
	prefExactMarked
	// prefInexact: prefix ties prove nothing; always fall back to
	// comparing keys (floats, defined types).
	prefInexact
)

// prefixClass reports the exactness class of keyPrefix for K.
func prefixClass[K cmp.Ordered]() int {
	var z K
	switch any(z).(type) {
	case int, int8, int16, int32, int64, uint, uint8, uint16, uint32, uint64, uintptr:
		return prefExactTotal
	case string:
		return prefExactMarked
	default:
		return prefInexact
	}
}

// prefProvesEqual reports whether, for K's class, equality of this
// prefix value alone proves the underlying keys are equal.
func prefProvesEqual(class int, pref uint64) bool {
	return class == prefExactTotal || (class == prefExactMarked && pref&0xFF != 0xFF)
}

// keyPrefix returns an order-preserving 8-byte accelerator for k:
// keyPrefix(a) < keyPrefix(b) implies a < b, and a < b implies
// keyPrefix(a) <= keyPrefix(b), so comparisons may trust a prefix
// difference and only fall back to cmp.Compare on prefix ties.
//
// Integers embed bijectively (sign bit flipped so the unsigned order
// matches the signed one), making every prefix exact. Strings pack
// their first 7 bytes big-endian into the top 56 bits and the length
// into the low byte — 0..7 for short strings, 0xFF saturated for 8+.
// The length byte both orders prefix-of relationships correctly
// (including keys with embedded NULs: "ab" < "ab\x00") and marks short
// strings' prefixes as exact, so a prefix tie between them proves the
// keys equal and no byte comparison is ever needed. Types without a
// cheap order-preserving embedding (floats) return 0 and always fall
// back.
func keyPrefix[K cmp.Ordered](k K) uint64 {
	const signFlip = 1 << 63
	switch v := any(k).(type) {
	case string:
		p := uint64(0xFF)
		if len(v) < 8 {
			p = uint64(len(v))
		}
		for i := 0; i < len(v) && i < 7; i++ {
			p |= uint64(v[i]) << (56 - 8*i)
		}
		return p
	case int:
		return uint64(v) ^ signFlip
	case int8:
		return uint64(v) ^ signFlip
	case int16:
		return uint64(v) ^ signFlip
	case int32:
		return uint64(v) ^ signFlip
	case int64:
		return uint64(v) ^ signFlip
	case uint:
		return uint64(v)
	case uint8:
		return uint64(v)
	case uint16:
		return uint64(v)
	case uint32:
		return uint64(v)
	case uint64:
		return v
	case uintptr:
		return uint64(v)
	default:
		return 0
	}
}

// run is one map task's sorted, span-compressed output for one reduce
// partition: keys holds the task's distinct keys in ascending order,
// vals[offs[i]:offs[i+1]] holds keys[i]'s values in emission order,
// and prefs[i] is keys[i]'s comparison accelerator.
type run[K cmp.Ordered, V any] struct {
	keys  []K
	prefs []uint64
	offs  []int32 // len(keys)+1 span boundaries into vals
	vals  []V
}

func (r *run[K, V]) pairs() int { return len(r.vals) }

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
// each) | u32 nvals | vals — the layout of spill files and fleet
// frames alike. Prefixes are not stored: readRun recomputes them from
// the keys, keeping the bytes independent of the accelerator encoding.
func appendRun[K cmp.Ordered, V any](buf []byte, r *run[K, V], appendKey func([]byte, K) []byte, appendVal func([]byte, V) []byte) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.keys)))
	for _, k := range r.keys {
		buf = appendKey(buf, k)
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.offs)))
	for _, off := range r.offs {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(off))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(r.vals)))
	for _, v := range r.vals {
		buf = appendVal(buf, v)
	}
	return buf
}

// readRun decodes one appendRun encoding and returns the rest of buf.
// Counts are bounded by the bytes left (every key and value encoding
// takes at least one byte), NaN keys are refused, and the offsets must
// start at 0, never decrease, number nkeys+1 (0 or 1 for an empty run)
// and end at nvals, so whatever it accepts the merge can walk.
func readRun[K cmp.Ordered, V any](buf []byte, readKey func([]byte) (K, []byte, error), readVal func([]byte) (V, []byte, error)) (run[K, V], []byte, error) {
	var r run[K, V]
	nk, buf, err := readCount(buf, 1)
	if err != nil {
		return r, buf, err
	}
	r.keys, r.prefs = make([]K, nk), make([]uint64, nk)
	for i := range r.keys {
		if r.keys[i], buf, err = readKey(buf); err != nil {
			return r, buf, fmt.Errorf("%w: key %d: %w", errMalformed, i, err)
		}
		if r.keys[i] != r.keys[i] {
			return r, buf, fmt.Errorf("%w: key %d: %w", errMalformed, i, ErrNaNKey)
		}
		r.prefs[i] = keyPrefix(r.keys[i])
	}
	no, buf, err := readCount(buf, 4)
	if err != nil {
		return r, buf, err
	}
	if no != nk+1 && (nk > 0 || no > 1) {
		return r, buf, fmt.Errorf("%w: %d offsets for %d keys", errOffsets, no, nk)
	}
	r.offs = make([]int32, no)
	last := int32(0)
	for i := range r.offs {
		r.offs[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
		if r.offs[i] < last || (i == 0 && r.offs[i] != 0) {
			return r, buf, fmt.Errorf("%w: offset %d is %d", errOffsets, i, r.offs[i])
		}
		last = r.offs[i]
	}
	nv, buf, err := readCount(buf[4*no:], 1)
	if err != nil {
		return r, buf, err
	}
	if int(last) != nv {
		return r, buf, fmt.Errorf("%w: offsets end at %d, %d values", errOffsets, last, nv)
	}
	r.vals = make([]V, nv)
	for i := range r.vals {
		if r.vals[i], buf, err = readVal(buf); err != nil {
			return r, buf, fmt.Errorf("%w: value %d: %w", errMalformed, i, err)
		}
	}
	return r, buf, nil
}

// cursor is one run's read position (a span index) inside a merge.
// task is the run's position in the merge's input order (map-task
// order), used to break key ties so the merge is stable.
type cursor[K cmp.Ordered, V any] struct {
	r    *run[K, V]
	pos  int
	task int
}

// scanMaxRuns is the fan-in up to which the merge scans cursor heads
// linearly instead of maintaining a heap. Head scanning is k inline
// integer compares per group; the heap is O(log k) calls through a
// generic comparison — the crossover sits far above typical map-task
// counts. Variable so tests can force the heap path.
var scanMaxRuns = 64

// mergeRuns merges the sorted runs of one reduce partition, calling
// group once per distinct key with that key's values in (task,
// emission) order and gi the 0-based ordinal of the group in
// ascending-key order — the same ordinal the pre-merge shuffle used,
// which keeps deterministic fault-injection schedules identical. The
// values slice is reused between calls; group implementations must
// not retain it (the Reducer contract). It returns the number of
// pairs consumed and groups formed before stopping (all of them
// unless group errors).
func mergeRuns[K cmp.Ordered, V any](runs []*run[K, V], group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	switch len(runs) {
	case 0:
		return 0, 0, nil
	case 1:
		// Single run: every span is already a complete group.
		var values []V
		r := runs[0]
		for i, key := range r.keys {
			values = values[:0]
			values = append(values, r.vals[r.offs[i]:r.offs[i+1]]...)
			pairs += len(values)
			gi := groups
			groups++
			if err := group(key, values, gi); err != nil {
				return pairs, groups, err
			}
		}
		return pairs, groups, nil
	}

	class := prefixClass[K]()
	cs := make([]cursor[K, V], 0, len(runs))
	for t, r := range runs {
		if len(r.keys) > 0 {
			cs = append(cs, cursor[K, V]{r: r, task: t})
		}
	}
	if len(cs) <= scanMaxRuns {
		return scanMerge(cs, class, group)
	}
	return heapMerge(cs, class, group)
}

// scanMerge is the small-fan-in merge: each group is found by scanning
// every cursor head for the minimum prefix, then drained in task order
// (cs is task-ordered and stays that way). All the work in the common
// case is inline uint64 compares and bulk span appends.
func scanMerge[K cmp.Ordered, V any](cs []cursor[K, V], class int, group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	var values []V
	for len(cs) > 0 {
		minPref := cs[0].r.prefs[cs[0].pos]
		for i := 1; i < len(cs); i++ {
			if p := cs[i].r.prefs[cs[i].pos]; p < minPref {
				minPref = p
			}
		}
		// An order-preserving prefix guarantees the minimum key sits
		// under the minimum prefix; on an exact tie any holder's key is
		// THE key, otherwise the tied heads' keys must be compared.
		exact := prefProvesEqual(class, minPref)
		var key K
		found := false
		for i := range cs {
			c := &cs[i]
			if c.r.prefs[c.pos] != minPref {
				continue
			}
			k := c.r.keys[c.pos]
			if !found || (!exact && k < key) {
				key, found = k, true
				if exact {
					break
				}
			}
		}
		values = values[:0]
		drained := false
		for i := range cs {
			c := &cs[i]
			if c.r.prefs[c.pos] != minPref || (!exact && c.r.keys[c.pos] != key) {
				continue
			}
			values = append(values, c.r.vals[c.r.offs[c.pos]:c.r.offs[c.pos+1]]...)
			c.pos++
			if c.pos == len(c.r.keys) {
				drained = true
			}
		}
		pairs += len(values)
		gi := groups
		groups++
		if err := group(key, values, gi); err != nil {
			return pairs, groups, err
		}
		if drained {
			n := 0
			for i := range cs {
				if cs[i].pos < len(cs[i].r.keys) {
					cs[n] = cs[i]
					n++
				}
			}
			cs = cs[:n]
		}
	}
	return pairs, groups, nil
}

// cursorLess orders cursors by (head prefix, head key, task), the
// heap-merge invariant. The key compare is skipped when the prefix
// tie already proves the keys equal.
func cursorLess[K cmp.Ordered, V any](a, b *cursor[K, V], class int) bool {
	pa, pb := a.r.prefs[a.pos], b.r.prefs[b.pos]
	if pa != pb {
		return pa < pb
	}
	if !prefProvesEqual(class, pa) {
		if c := cmp.Compare(a.r.keys[a.pos], b.r.keys[b.pos]); c != 0 {
			return c < 0
		}
	}
	return a.task < b.task
}

// siftDown restores the heap invariant for the subtree rooted at i.
// The heap is hand-rolled rather than container/heap so the merge
// inner loop pays no interface boxing or per-element allocation.
func siftDown[K cmp.Ordered, V any](h []cursor[K, V], i, class int) {
	for {
		l, r := 2*i+1, 2*i+2
		least := i
		if l < len(h) && cursorLess(&h[l], &h[least], class) {
			least = l
		}
		if r < len(h) && cursorLess(&h[r], &h[least], class) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}

// heapMerge is the wide-fan-in merge: a binary min-heap of cursors
// keeps each step O(log k) when k is too large for head scanning.
func heapMerge[K cmp.Ordered, V any](h []cursor[K, V], class int, group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	var values []V
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(h, i, class)
	}
	for len(h) > 0 {
		c := &h[0]
		key, pref := c.r.keys[c.pos], c.r.prefs[c.pos]
		values = values[:0]
		// Drain every run's span for this key, lowest task first: the
		// heap's tie-break surfaces contributing runs in task order.
		for {
			c := &h[0]
			values = append(values, c.r.vals[c.r.offs[c.pos]:c.r.offs[c.pos+1]]...)
			c.pos++
			if c.pos == len(c.r.keys) {
				h[0] = h[len(h)-1]
				h = h[:len(h)-1]
			}
			siftDown(h, 0, class)
			if len(h) == 0 {
				break
			}
			c = &h[0]
			if c.r.prefs[c.pos] != pref || (!prefProvesEqual(class, pref) && c.r.keys[c.pos] != key) {
				break
			}
		}
		pairs += len(values)
		gi := groups
		groups++
		if err := group(key, values, gi); err != nil {
			return pairs, groups, err
		}
	}
	return pairs, groups, nil
}
