package des

import (
	"math/rand"
	"testing"
)

// TestEventQueueOrder drives the event queue with random interleaved
// pushes and pops against a reference that pops the minimum by
// Key.Before. Keys come from a small space, so equal times with
// different depths, sources and sequences are common, and so are
// exact duplicates (the pending queue's incarnations): a pop may
// return any one of equal keys, but its body must be one that was
// pushed under that key. Each round ends by draining the queue to
// empty, and the slab must never outgrow the most messages live at
// once: popped slots are reused.
func TestEventQueueOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var q eventQueue
	var ref []message
	uid, peak := uint64(0), 0
	randKey := func() Key {
		return Key{
			At:    float64(rng.Intn(4)) / 2,
			Depth: int32(rng.Intn(3)),
			Src:   LPID(rng.Intn(4) - 1),
			Seq:   uint64(rng.Intn(4)),
		}
	}
	pop := func() {
		t.Helper()
		best := 0
		for i := range ref {
			if ref[i].key.Before(ref[best].key) {
				best = i
			}
		}
		if got := q.top().key; got != ref[best].key {
			t.Fatalf("top key %+v, want %+v", got, ref[best].key)
		}
		m := q.pop()
		if m.key != ref[best].key {
			t.Fatalf("popped key %+v, want %+v", m.key, ref[best].key)
		}
		for i := range ref {
			if ref[i] == m {
				ref = append(ref[:i], ref[i+1:]...)
				return
			}
		}
		t.Fatalf("popped %+v, which was never pushed or was popped already", m)
	}
	for round := 0; round < 50; round++ {
		for op := 0; op < 400; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				uid++
				m := message{key: randKey(), uid: uid, dst: LPID(rng.Intn(8)), payload: Payload{A: int32(uid)}}
				q.push(m)
				ref = append(ref, m)
				peak = max(peak, len(ref))
			} else {
				pop()
			}
			if q.len() != len(ref) {
				t.Fatalf("len %d, want %d", q.len(), len(ref))
			}
			if len(q.slab) > peak {
				t.Fatalf("slab holds %d slots, but at most %d messages were ever live", len(q.slab), peak)
			}
		}
		for len(ref) > 0 {
			pop()
		}
		if q.len() != 0 || len(q.free) != len(q.slab) {
			t.Fatalf("drained queue: len %d, %d of %d slots free", q.len(), len(q.free), len(q.slab))
		}
	}
}

// TestEventQueueSteadyStateAllocs checks that once the queue has
// grown to its working size, a push and a pop allocate nothing.
func TestEventQueueSteadyStateAllocs(t *testing.T) {
	var q eventQueue
	x, seq := uint64(1), uint64(0)
	for i := 0; i < 600; i++ {
		q.push(message{key: Key{At: holdDelay(&x), Seq: seq}})
		seq++
	}
	allocs := testing.AllocsPerRun(1000, func() {
		m := q.pop()
		m.key = Key{At: m.key.At + holdDelay(&x), Seq: seq}
		q.push(m)
		seq++
	})
	if allocs != 0 {
		t.Fatalf("steady-state push+pop allocates %v times", allocs)
	}
}
