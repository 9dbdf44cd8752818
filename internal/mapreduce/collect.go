package mapreduce

// collect.go is the map side of the shuffle: a collector groups a
// map-task attempt's pairs by key as they are emitted (Spark's
// map-side combine), so a task's runs come from sorting its distinct
// keys, never its pairs. A collector outlives its task, as Hadoop's
// map-side sort buffer does: reset empties it for the next task and
// keeps every array it has grown.

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
)

// ErrNaNKey rejects a NaN key at emit. NaN is unequal to itself and
// has no place in the key order, so no run could hold it sorted and no
// merge could ever drain it.
var ErrNaNKey = errors.New("mapreduce: NaN key")

// collector gathers one map-task attempt's emissions, one hash-grouped
// buffer per reduce partition. A collector serves one task at a time;
// reset readies it for the next. It is not copied once reset: emitFn
// is bound to its address.
type collector[K cmp.Ordered, V any] struct {
	part    Partitioner[K]
	parts   []partBuf[K, V]
	emitted int
	err     error      // the first NaN key or out-of-range partition
	emitFn  func(K, V) // emit as the mapper takes it, made once
}

// partBuf is one partition's emissions: slot i holds the i-th distinct
// key (as first emitted), and emission e carried value vals[e] for key
// slot slots[e]. order and next are run's sort scratch.
type partBuf[K cmp.Ordered, V any] struct {
	idx   map[K]int32
	keys  []K
	slots []int32
	vals  []V
	order []slotPref
	next  []int32
}

// slotPref is a distinct key's sort element: its prefix and its slot.
type slotPref struct {
	pref uint64
	slot int32
}

// reset empties c for a task routing by part over nReduce partitions.
// Key maps are cleared and buffers truncated, so a task no bigger than
// the ones before it grows nothing.
func (c *collector[K, V]) reset(part Partitioner[K], nReduce int) {
	c.part, c.emitted, c.err = part, 0, nil
	if c.emitFn == nil {
		c.emitFn = c.emit
	}
	c.parts = resize(c.parts, nReduce)
	for p := range c.parts {
		b := &c.parts[p]
		clear(b.idx)
		b.keys, b.slots, b.vals = b.keys[:0], b.slots[:0], b.vals[:0]
	}
}

// emit routes one pair. The partition is computed per emission, so
// keys that are == but format differently (±0) route as the
// partitioner says; within a partition they share one slot.
func (c *collector[K, V]) emit(k K, v V) {
	c.emitted++
	if c.err != nil {
		return
	}
	if k != k {
		c.err = ErrNaNKey
		return
	}
	p := c.part(k, len(c.parts))
	if p < 0 || p >= len(c.parts) {
		c.err = fmt.Errorf("partitioner returned %d for %d partitions", p, len(c.parts))
		return
	}
	b := &c.parts[p]
	s, ok := b.idx[k]
	if !ok {
		if b.idx == nil {
			b.idx = map[K]int32{}
		}
		s = int32(len(b.keys))
		b.idx[k] = s
		b.keys = append(b.keys, k)
	}
	b.slots = append(b.slots, s)
	b.vals = append(b.vals, v)
}

// runs builds every partition's sorted, span-compressed run, applying
// combine (when non-nil) to each key's values. The runs go into out's
// array and their own arrays when those are big enough: a caller that
// keeps runs past its next task passes nil.
func (c *collector[K, V]) runs(combine Combiner[K, V], out []run[K, V]) ([]run[K, V], error) {
	out = resize(out, len(c.parts))
	for p := range c.parts {
		if err := c.parts[p].run(combine, &out[p]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// run fills r with the partition's run. It sorts the distinct keys by
// (prefix, key) — over pointer-free (prefix, slot) elements, so the
// sort moves no strings — then counting-sorts the values into key
// order. The counting sort is stable, so each key keeps its emission
// order. A combiner returning no values drops its key.
func (b *partBuf[K, V]) run(combine Combiner[K, V], r *run[K, V]) error {
	nk := len(b.keys)
	*r = run[K, V]{keys: r.keys[:0], prefs: r.prefs[:0], offs: r.offs[:0], vals: r.vals[:0]}
	if nk == 0 {
		return nil
	}
	class := prefixClass[K]()
	order := resize(b.order, nk)
	for s, k := range b.keys {
		order[s] = slotPref{keyPrefix(k), int32(s)}
	}
	slices.SortFunc(order, func(x, y slotPref) int {
		if x.pref != y.pref || prefProvesEqual(class, x.pref) {
			return cmp.Compare(x.pref, y.pref)
		}
		return cmp.Compare(b.keys[x.slot], b.keys[y.slot]) // never 0: slots hold distinct keys
	})

	r.keys, r.prefs, r.offs = resize(r.keys, nk), resize(r.prefs, nk), resize(r.offs, nk+1)
	r.offs[0] = 0
	next := resize(b.next, nk) // per slot: its count, then its fill cursor
	clear(next)
	b.order, b.next = order, next
	for _, s := range b.slots {
		next[s]++
	}
	for i, o := range order {
		r.keys[i], r.prefs[i] = b.keys[o.slot], o.pref
		r.offs[i+1] = r.offs[i] + next[o.slot]
		next[o.slot] = r.offs[i]
	}
	r.vals = resize(r.vals, len(b.vals))
	for e, s := range b.slots {
		r.vals[next[s]] = b.vals[e]
		next[s]++
	}
	if combine == nil {
		return nil
	}

	// Combine in place while the output stays behind the unread input;
	// the capacity limit keeps an appending combiner off the next span.
	vals, inPlace, n, lo := r.vals[:0], true, 0, int32(0)
	for i, k := range r.keys {
		hi := r.offs[i+1]
		vs, err := combine(k, r.vals[lo:hi:hi])
		lo = hi
		if err != nil {
			return err
		}
		if len(vs) == 0 {
			continue
		}
		if inPlace && len(vals)+len(vs) > int(hi) {
			vals, inPlace = append(make([]V, 0, len(vals)+len(vs)+len(r.vals)-int(hi)), vals...), false
		}
		vals = append(vals, vs...)
		r.keys[n], r.prefs[n] = k, r.prefs[i]
		n++
		r.offs[n] = int32(len(vals))
	}
	r.keys, r.prefs, r.offs, r.vals = r.keys[:n], r.prefs[:n], r.offs[:n+1], vals
	return nil
}
