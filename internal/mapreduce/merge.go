package mapreduce

// merge.go is the shuffle's data plane: sorted, span-compressed runs
// and the k-way merge over them (codec.go encodes them). Each
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

import "cmp"

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
//
// A run read from a run file holds one chunk of it at a time: src
// refills the run with the next chunk once the merge has drained it.
type run[K cmp.Ordered, V any] struct {
	keys  []K
	prefs []uint64
	offs  []int32 // len(keys)+1 span boundaries into vals
	vals  []V
	src   *runFile[K, V] // nil for a run held whole in memory
	// wire is set on a run a fleet worker sent and the coordinator has
	// not decoded: its appendRun encoding, holding wireKeys keys. keys
	// and vals are empty until it is decoded.
	wire     []byte
	wireKeys int
}

func (r *run[K, V]) pairs() int { return len(r.vals) }

// nkeys is the run's key count, decoded or not.
func (r *run[K, V]) nkeys() int {
	if r.wire != nil {
		return r.wireKeys
	}
	return len(r.keys)
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
// unless group or a run file errors). A run read from a run file
// merges exactly like one in memory: the cursor refills it chunk by
// chunk as it drains.
func mergeRuns[K cmp.Ordered, V any](runs []*run[K, V], group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	cs := make([]cursor[K, V], 0, len(runs))
	for t, r := range runs {
		c := cursor[K, V]{r: r, task: t}
		ok, err := c.fill()
		if err != nil {
			return 0, 0, err
		}
		if ok {
			cs = append(cs, c)
		}
	}
	switch class := prefixClass[K](); {
	case len(cs) == 0:
		return 0, 0, nil
	case len(cs) == 1:
		return singleMerge(&cs[0], group)
	case len(cs) <= scanMaxRuns:
		return scanMerge(cs, class, group)
	default:
		return heapMerge(cs, class, group)
	}
}

// fill refills c's run from its file once the merge has drained it,
// and reports whether c still has a head span.
func (c *cursor[K, V]) fill() (bool, error) {
	for c.pos == len(c.r.keys) {
		if c.r.src == nil {
			return false, nil
		}
		if ok, err := c.r.src.next(c.r); !ok || err != nil {
			return false, err
		}
		c.pos = 0
	}
	return true, nil
}

// singleMerge is the merge of a lone run: every span is already a
// complete group.
func singleMerge[K cmp.Ordered, V any](c *cursor[K, V], group func(key K, values []V, gi int) error) (pairs, groups int, err error) {
	var values []V
	for {
		for r := c.r; c.pos < len(r.keys); c.pos++ {
			values = append(values[:0], r.vals[r.offs[c.pos]:r.offs[c.pos+1]]...)
			pairs += len(values)
			gi := groups
			groups++
			if err := group(r.keys[c.pos], values, gi); err != nil {
				return pairs, groups, err
			}
		}
		if ok, err := c.fill(); !ok || err != nil {
			return pairs, groups, err
		}
	}
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
				ok, err := cs[i].fill()
				if err != nil {
					return pairs, groups, err
				}
				if ok {
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
				ok, err := c.fill()
				if err != nil {
					return pairs, groups, err
				}
				if !ok {
					h[0] = h[len(h)-1]
					h = h[:len(h)-1]
				}
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
