package sched

// stealing.go adds a work-stealing schedule, the policy OpenMP tasks
// and TBB use rather than any `schedule(...)` clause: iterations are
// dealt to per-worker deques up front (giving static's locality);
// workers pop their own deque from the back (LIFO, cache-warm) and
// steal from a victim's front (FIFO, the oldest — and for a
// wavefront workload usually the largest — pending chunk) when their
// own deque drains. Compared to Dynamic there is no single contended
// counter; compared to Static, imbalance is bounded by chunk size.

import "sync"

// Stealing is the work-stealing policy; see the package comment of
// this file. ChunkSize controls the granularity dealt to the deques.
const Stealing Policy = 4

// stealDeque is a mutex-protected chunk deque. A fancier lock-free
// Chase-Lev deque is overkill at tile granularity: the lock is held
// for a few nanoseconds per chunk. The chunk storage persists across
// regions (head marks the consumed prefix) so refilling it reuses the
// backing array instead of reallocating per region.
type stealDeque struct {
	mu     sync.Mutex
	chunks [][2]int // [lo, hi) ranges; live entries are chunks[head:]
	head   int
}

// reset empties the deque, retaining its storage.
func (d *stealDeque) reset() {
	d.chunks = d.chunks[:0]
	d.head = 0
}

// popBack removes the newest chunk (owner side).
func (d *stealDeque) popBack() ([2]int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.chunks)
	if n <= d.head {
		return [2]int{}, false
	}
	c := d.chunks[n-1]
	d.chunks = d.chunks[:n-1]
	return c, true
}

// popFront removes the oldest chunk (thief side).
func (d *stealDeque) popFront() ([2]int, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.chunks) <= d.head {
		return [2]int{}, false
	}
	c := d.chunks[d.head]
	d.head++
	return c, true
}

// dealDeques (re)fills the per-worker deques for the current region.
// It is bound to Pool.buildDeques at construction so handing it to
// Once.Do creates no per-region closure. After the first region the
// deque storage is warm and dealing allocates nothing.
func (p *Pool) dealDeques() {
	if p.deques == nil {
		p.deques = make([]*stealDeque, p.workers)
		for w := range p.deques {
			p.deques[w] = &stealDeque{}
		}
	}
	for _, d := range p.deques {
		d.reset()
	}
	// Deal chunks round-robin so each deque holds a spread of the
	// index space (better balance when work clusters spatially).
	w := 0
	for lo := 0; lo < p.n; lo += p.chunk {
		hi := lo + p.chunk
		if hi > p.n {
			hi = p.n
		}
		d := p.deques[w]
		d.chunks = append(d.chunks, [2]int{lo, hi})
		w = (w + 1) % p.workers
	}
}

// runStealing executes one parallel region under the stealing policy.
// Deques are refilled per region; the deal cost is O(n/chunk).
func (p *Pool) runStealing(id int) {
	// The first worker to arrive deals the deques for this region;
	// others wait inside the Once. The sync.Once lives in the region
	// state reset by run.
	p.stealOnce.Do(p.buildDeques)

	own := p.deques[id]
	for !p.aborted.Load() {
		if c, ok := own.popBack(); ok {
			p.exec(id, c[0], c[1])
			continue
		}
		// Steal sweep: try every victim once; if all empty, the
		// region is done for this worker (chunks in flight on other
		// workers cannot be helped).
		stolen := false
		for off := 1; off < p.workers; off++ {
			victim := p.deques[(id+off)%p.workers]
			if c, ok := victim.popFront(); ok {
				p.cSteals.Inc() // nil-safe: no-op with obs off
				p.exec(id, c[0], c[1])
				stolen = true
				break
			}
		}
		if !stolen {
			return
		}
	}
}
