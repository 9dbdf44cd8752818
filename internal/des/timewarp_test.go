package des

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/obs"
)

// ---------------------------------------------------------------
// Deterministic fuzz model: each LP is a hash accumulator whose
// handler derives everything — how many messages to send, to whom,
// with which quantized delay — from (state, payload). Quantized
// delays manufacture simultaneous timestamps on purpose; zero-delay
// sends exercise the depth ordering; a "cancel" kind exercises
// model-level cancellation (a flag that turns a later event into a
// no-op, the way wfsched cancels link wake-ups). Because the model is
// a pure function of the committed order, byte-equal final states
// across worker counts prove the canonical order is what committed.
// ---------------------------------------------------------------

const (
	fuzzKindWork   = 0
	fuzzKindCancel = 1
)

type fuzzState struct {
	hash      uint64
	events    int64
	cancelled uint64 // bit e: epoch e switched off by fuzzKindCancel
	skipped   int64
}

// fuzzState's undo slots: one per field.
const (
	fuzzSlotHash = iota
	fuzzSlotEvents
	fuzzSlotCancelled
	fuzzSlotSkipped
)

func (s *fuzzState) Undo(slot int32, old uint64) {
	switch slot {
	case fuzzSlotHash:
		s.hash = old
	case fuzzSlotEvents:
		s.events = int64(old)
	case fuzzSlotCancelled:
		s.cancelled = old
	case fuzzSlotSkipped:
		s.skipped = int64(old)
	}
}

func mix(h uint64, vs ...uint64) uint64 {
	for _, v := range vs {
		h ^= v
		h *= 0x9E3779B97F4A7C15
		h ^= h >> 29
	}
	return h
}

// fuzzModel builds a Warp over nLP hash LPs seeded from seed.
func fuzzModel(t *testing.T, seed uint64, nLP, nSeeds, workers int, window float64, sink obs.Sink) *Warp {
	t.Helper()
	w := NewWarp(WarpConfig{Workers: workers, Window: window, Obs: sink})
	for i := 0; i < nLP; i++ {
		w.AddLP(fmt.Sprintf("lp%d", i),
			&fuzzState{},
			func(p *Proc, at float64, pl Payload) {
				st := p.State().(*fuzzState)
				p.Save(fuzzSlotEvents, uint64(st.events))
				st.events++
				if pl.Kind == fuzzKindCancel {
					p.Save(fuzzSlotCancelled, st.cancelled)
					st.cancelled |= 1 << uint(pl.A)
					return
				}
				if st.cancelled&(1<<uint(pl.B)) != 0 {
					p.Save(fuzzSlotSkipped, uint64(st.skipped))
					st.skipped++ // event arrived after its epoch was cancelled
					return
				}
				p.Save(fuzzSlotHash, st.hash)
				st.hash = mix(st.hash, math.Float64bits(at), uint64(pl.A), uint64(pl.B), math.Float64bits(pl.F))
				ttl := pl.A
				if ttl <= 0 {
					return
				}
				h := st.hash
				for n := int(h % 3); n > 0; n-- {
					h = mix(h, uint64(n))
					dst := LPID(h % uint64(len(p.w.lps)))
					// Quantized delays force timestamp collisions;
					// ~1/6 of sends are zero-delay chains.
					delay := []float64{0, 0.25, 0.25, 0.5, 1, 1.5}[(h>>8)%6]
					kind := uint8(fuzzKindWork)
					if (h>>16)%11 == 0 {
						kind = fuzzKindCancel
					}
					p.Send(dst, delay, Payload{
						Kind: kind,
						A:    ttl - 1,
						B:    int32(h % 7),
						F:    float64((h>>24)%1000) / 16,
					})
				}
			})
	}
	h := seed
	for i := 0; i < nSeeds; i++ {
		h = mix(h, uint64(i))
		w.SeedAt(LPID(h%uint64(nLP)), float64((h>>8)%8)/2, Payload{
			Kind: fuzzKindWork, A: int32(6 + h%5), B: int32(h % 7), F: float64(h % 97),
		})
	}
	return w
}

// fingerprint serializes every LP's final state.
func fingerprint(w *Warp) string {
	out := ""
	for i := range w.lps {
		st := w.LPState(LPID(i)).(*fuzzState)
		out += fmt.Sprintf("lp%d hash=%016x events=%d skipped=%d\n", i, st.hash, st.events, st.skipped)
	}
	return out
}

// withFlushEvery runs f with the parallel kernel's flush cadence set
// to n events.
func withFlushEvery(n int, f func()) {
	old := flushEvery
	flushEvery = n
	defer func() { flushEvery = old }()
	f()
}

// TestWarpFuzzCrossWorkers is the kernel half of the randomized
// cross-kernel oracle: random event schedules (simultaneous
// timestamps, zero-delay chains, model-level cancellation) must
// produce byte-equal outcomes and identical committed step counts at
// workers 1, 2, 4 and 8 — workers=1 being the sequential kernel path.
// The flush cadence varies with the trial: how many events a worker
// runs before its sends to other partitions go out.
func TestWarpFuzzCrossWorkers(t *testing.T) {
	var totalRollbacks int64
	for trial := 0; trial < 12; trial++ {
		seed := mix(0xC0FFEE, uint64(trial))
		nLP := 2 + int(seed%7)
		nSeeds := 3 + int((seed>>8)%6)
		batch := []int{1, 4, 32}[trial%3]
		window := []float64{0, 2.5}[trial%2]

		ref := fuzzModel(t, seed, nLP, nSeeds, 1, 0, obs.Sink{})
		if err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := fingerprint(ref)
		wantSteps := ref.Stats().Committed
		if wantSteps == 0 {
			t.Fatalf("trial %d: degenerate schedule (0 events)", trial)
		}

		for _, workers := range []int{2, 4, 8} {
			w := fuzzModel(t, seed, nLP, nSeeds, workers, window, obs.Sink{})
			var err error
			withFlushEvery(batch, func() { err = w.Run(context.Background()) })
			if err != nil {
				t.Fatal(err)
			}
			if got := fingerprint(w); got != want {
				t.Fatalf("trial %d workers=%d batch=%d window=%v: outcome diverged\n got:\n%s\nwant:\n%s",
					trial, workers, batch, window, got, want)
			}
			st := w.Stats()
			if st.Committed != wantSteps {
				t.Fatalf("trial %d workers=%d: committed %d steps, sequential did %d",
					trial, workers, st.Committed, wantSteps)
			}
			assertDrained(t, w)
			totalRollbacks += st.Rollbacks
		}
	}
	// Speculation must actually have been exercised somewhere in the
	// suite, or the oracle proves nothing about rollback.
	if totalRollbacks == 0 {
		t.Log("warning: no rollbacks across the whole fuzz suite; oracle ran but speculation untested")
	} else {
		t.Logf("fuzz suite exercised %d rollbacks", totalRollbacks)
	}
}

// FuzzWarpCrossWorkers is TestWarpFuzzCrossWorkers with the schedule
// chosen by the fuzzer: the seed, the LP and seed-event counts, the
// flush cadence (batch: 1-32 events a worker runs before its sends to
// other partitions go out) and the optimism window. Workers=2 must
// match the sequential kernel on every LP's final state and on the
// committed count, and must leave no pending entries or annihilation
// marks.
func FuzzWarpCrossWorkers(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, lps, seeds, batch, window uint8) {
		nLP := 1 + int(lps%8)
		nSeeds := 1 + int(seeds%8)
		n := 1 + int(batch%32)
		win := []float64{0, 0.5, 1.5, 2.5}[window%4]

		ref := fuzzModel(t, seed, nLP, nSeeds, 1, 0, obs.Sink{})
		if err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		w := fuzzModel(t, seed, nLP, nSeeds, 2, win, obs.Sink{})
		var err error
		withFlushEvery(n, func() { err = w.Run(context.Background()) })
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(w), fingerprint(ref); got != want {
			t.Fatalf("batch=%d window=%v: outcome diverged\n got:\n%s\nwant:\n%s", n, win, got, want)
		}
		if got, want := w.Stats().Committed, ref.Stats().Committed; got != want {
			t.Fatalf("batch=%d window=%v: committed %d, sequential did %d", n, win, got, want)
		}
		assertDrained(t, w)
	})
}

// TestWarpThrottleSkipsAnnihilatedEntry builds by hand the state a
// fuzzed schedule reached: a partition whose queue holds an event
// beyond the optimism window, which an anti-message then annihilated,
// with nothing live left anywhere. Throttling on the dead entry would
// park the worker for a GVT pass that finds no minimum, cannot move
// GVT, and wakes it to throttle again forever; the worker must drop
// the entry and report the drain.
func TestWarpThrottleSkipsAnnihilatedEntry(t *testing.T) {
	w := NewWarp(WarpConfig{Workers: 2, Window: 1})
	w.AddLP("a", nil, func(*Proc, float64, Payload) {})
	w.AddLP("src", nil, func(*Proc, float64, Payload) {})
	w.partition()
	w.gvtBits.Store(math.Float64bits(0))
	m := message{key: Key{At: 5, Src: 1}, dst: 0, uid: 1}
	anti := m
	anti.neg = true
	ww := w.lps[0].ww
	w.route(ww, m)
	w.route(ww, anti)
	if ww.q.len() != 1 {
		t.Fatal("setup: the annihilated event should still be queued")
	}

	done := make(chan struct{})
	go func() {
		w.runWorkers(context.Background())
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("workers livelocked on an annihilated queue entry")
	}
	if w.runErr != nil || w.panicV != nil {
		t.Fatalf("run failed: %v %v", w.runErr, w.panicV)
	}
	if got := w.Stats().GVTPasses; got != 0 {
		t.Fatalf("%d GVT passes with nothing live to bound", got)
	}
	assertDrained(t, w)
}

// TestWarpThrottledWorkerParks runs two partitions that advance
// simulated time at different rates past a 0.05 s window: LP 0
// (worker 0) steps 0.0001 s per event, so it moves half the window
// between the GVT passes it asks for, and LP 1 (worker 1) steps 0.1 s,
// twice the window. LP 0 starts LP 1's chain at t = 1 s, long after
// passes have set GVT; from then on worker 1 waits at the window edge
// before every event for worker 0 to carry GVT forward. A throttled
// worker parks until a pass moves GVT, so the passes are the ones the
// gvtEvery cadence asks for, plus a few when every worker is parked.
func TestWarpThrottledWorkerParks(t *testing.T) {
	const slow, fast = 20000, 9 // both chains end near t = 2 s
	w := NewWarp(WarpConfig{Workers: 2, Window: 0.05})
	w.AddLP("slow", nil, func(p *Proc, at float64, pl Payload) {
		if pl.A == slow/2 {
			p.Send(1, 0, Payload{A: fast})
		}
		if pl.A > 0 {
			p.Send(0, 0.0001, Payload{A: pl.A - 1})
		}
	})
	w.AddLP("fast", nil, func(p *Proc, at float64, pl Payload) {
		if pl.A > 0 {
			p.Send(1, 0.1, Payload{A: pl.A - 1})
		}
	})
	w.SeedAt(0, 0, Payload{A: slow})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := w.Stats()
	if st.Committed != slow+fast+2 || st.Rollbacks != 0 {
		t.Fatalf("committed %d with %d rollbacks, want %d and none", st.Committed, st.Rollbacks, slow+fast+2)
	}
	if bound := st.Committed/int64(gvtEvery) + 8; st.GVTPasses > bound {
		t.Fatalf("%d GVT passes for %d events, want at most %d: a throttled worker spins", st.GVTPasses, st.Committed, bound)
	}
	t.Logf("%d GVT passes for %d events", st.GVTPasses, st.Committed)
}

// TestWarpOwnPartitionNeverRollsBack runs a model whose LPs message
// only LPs of their own partition (LP i sends to LPs congruent to i
// mod 4, so mod 2 as well). Each worker executes its partition in
// ascending key order and nothing reaches it from outside, so no
// message can land in an LP's past: no rollback at workers 2 and 4,
// and the sequential kernel's outcome.
func TestWarpOwnPartitionNeverRollsBack(t *testing.T) {
	const nLP = 12
	build := func(workers int) *Warp {
		w := NewWarp(WarpConfig{Workers: workers, Window: 1.5})
		for i := 0; i < nLP; i++ {
			w.AddLP(fmt.Sprintf("lp%d", i), &fuzzState{}, func(p *Proc, at float64, pl Payload) {
				st := p.State().(*fuzzState)
				p.Save(fuzzSlotEvents, uint64(st.events))
				st.events++
				p.Save(fuzzSlotHash, st.hash)
				st.hash = mix(st.hash, math.Float64bits(at), uint64(pl.A), uint64(pl.B))
				if pl.A == 0 {
					return
				}
				h := st.hash
				for n := 1 + int(h%2); n > 0; n-- {
					h = mix(h, uint64(n))
					dst := LPID(int(p.ID())%4 + 4*int(h%(nLP/4)))
					delay := []float64{0, 0.25, 0.5, 1}[(h>>8)%4]
					p.Send(dst, delay, Payload{A: pl.A - 1, B: int32(h % 7)})
				}
			})
		}
		for i := 0; i < nLP; i++ {
			w.SeedAt(LPID(i), float64(i%3)/4, Payload{A: 9, B: int32(i)})
		}
		return w
	}
	ref := build(1)
	if err := ref.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4} {
		w := build(workers)
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got, want := fingerprint(w), fingerprint(ref); got != want {
			t.Fatalf("workers=%d: outcome diverged\n got:\n%s\nwant:\n%s", workers, got, want)
		}
		st := w.Stats()
		if st.Committed != ref.Stats().Committed || st.Rollbacks != 0 {
			t.Fatalf("workers=%d: committed %d with %d rollbacks, want %d and none",
				workers, st.Committed, st.Rollbacks, ref.Stats().Committed)
		}
		assertDrained(t, w)
	}
}

// TestWarpSequentialAllocsFlat pins the sequential kernel's
// allocations as independent of the event count: at steady state an
// event allocates nothing, so ten times the events may cost only a
// few more heap-growth allocations, not one per event.
func TestWarpSequentialAllocsFlat(t *testing.T) {
	const chains = 64
	allocs := func(events int) float64 {
		return testing.AllocsPerRun(3, func() {
			w := kernelModel(1, 8, chains, events/chains)
			if err := w.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(10_000), allocs(100_000)
	if large > small+4 {
		t.Fatalf("sequential kernel allocs grow with events: %v at 10k events, %v at 100k", small, large)
	}
}

// GVTStressModels are further models TestWarpGVTStress runs at each
// of its worker counts, registered by external test files (the planet
// scenario lives in a package that imports this one). Each runs its
// model at the given worker count and checks it against the
// sequential kernel.
var GVTStressModels []func(t *testing.T, workers int)

// TestWarpGVTStress shrinks the flush and GVT cadences to one event
// so passes interleave with nearly every event, hammering the quiesce
// rendezvous, the transient-message window a non-quiescing scan
// would race against (an event executed on a not-yet-scanned
// partition delivering into an already-scanned one), and fossil
// collection's
// compaction of the history, send log and undo log between almost
// every pair of events. Byte-equality with the sequential kernel is
// the oracle; CI runs this under -race.
func TestWarpGVTStress(t *testing.T) {
	oldFlush, oldEvery := flushEvery, gvtEvery
	flushEvery, gvtEvery = 1, 1
	defer func() { flushEvery, gvtEvery = oldFlush, oldEvery }()

	for trial := 0; trial < 6; trial++ {
		seed := mix(0xD15EA5E, uint64(trial))
		nLP := 3 + int(seed%5)
		nSeeds := 4 + int((seed>>8)%5)

		ref := fuzzModel(t, seed, nLP, nSeeds, 1, 0, obs.Sink{})
		if err := ref.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := fingerprint(ref)

		for _, workers := range []int{2, 8} {
			for _, window := range []float64{0, 1.5} {
				w := fuzzModel(t, seed, nLP, nSeeds, workers, window, obs.Sink{})
				if err := w.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
				if got := fingerprint(w); got != want {
					t.Fatalf("trial %d workers=%d window=%v: outcome diverged under gvtEvery=1\n got:\n%s\nwant:\n%s",
						trial, workers, window, got, want)
				}
				if w.Stats().Committed != ref.Stats().Committed {
					t.Fatalf("trial %d workers=%d window=%v: committed %d, want %d",
						trial, workers, window, w.Stats().Committed, ref.Stats().Committed)
				}
				if w.Stats().GVTPasses == 0 {
					t.Fatalf("trial %d workers=%d: no GVT passes despite gvtEvery=1", trial, workers)
				}
				assertDrained(t, w)
			}
		}
	}
	for _, workers := range []int{2, 8} {
		for _, model := range GVTStressModels {
			model(t, workers)
		}
	}
}

// TestWarpPingPong checks a minimal two-LP exchange commits the exact
// event count and final times on both paths.
func TestWarpPingPong(t *testing.T) {
	for _, workers := range []int{1, 4} {
		w := NewWarp(WarpConfig{Workers: workers})
		mk := func(self string) Handler {
			return func(p *Proc, at float64, pl Payload) {
				st := p.State().(*fuzzState)
				p.Save(fuzzSlotEvents, uint64(st.events))
				st.events++
				p.Save(fuzzSlotHash, st.hash)
				st.hash = mix(st.hash, math.Float64bits(at), uint64(pl.A))
				if pl.A > 0 {
					p.Send(1-p.ID(), 0.5, Payload{A: pl.A - 1})
				}
			}
		}
		a := w.AddLP("a", &fuzzState{}, mk("a"))
		w.AddLP("b", &fuzzState{}, mk("b"))
		w.SeedAt(a, 0, Payload{A: 100})
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		if got := w.Stats().Committed; got != 101 {
			t.Fatalf("workers=%d: committed %d events, want 101", workers, got)
		}
		sa := w.LPState(0).(*fuzzState)
		sb := w.LPState(1).(*fuzzState)
		if sa.events != 51 || sb.events != 50 {
			t.Fatalf("workers=%d: events a=%d b=%d, want 51/50", workers, sa.events, sb.events)
		}
	}
}

// TestWarpZeroDelayDepth pins the canonical order of a zero-delay
// chain: at one instant, a cause commits before its effects, and
// same-depth effects commit in (src, seq) order.
func TestWarpZeroDelayDepth(t *testing.T) {
	for _, workers := range []int{1, 4} {
		var order []int32
		w := NewWarp(WarpConfig{Workers: workers})
		lp := w.AddLP("chain", nil, func(p *Proc, at float64, pl Payload) {
			order = append(order, pl.A)
			if pl.A == 0 {
				p.Send(p.ID(), 0, Payload{A: 2}) // depth 1, seq 0
				p.Send(p.ID(), 0, Payload{A: 3}) // depth 1, seq 1
			}
			if pl.A == 2 {
				p.Send(p.ID(), 0, Payload{A: 4}) // depth 2
			}
		})
		w.SeedAt(lp, 1, Payload{A: 0})
		w.SeedAt(lp, 1, Payload{A: 1}) // same instant, seed order
		if err := w.Run(context.Background()); err != nil {
			t.Fatal(err)
		}
		want := fmt.Sprint([]int32{0, 1, 2, 3, 4})
		if got := fmt.Sprint(order); got != want {
			t.Fatalf("workers=%d: zero-delay order %v, want %v", workers, got, want)
		}
	}
}

// TestWarpContextCancel checks both paths honour cancellation, and
// that both still record the partial step count in des.committed —
// telemetry from a cancelled run must not silently read zero.
func TestWarpContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		reg := obs.NewRegistry()
		w := NewWarp(WarpConfig{Workers: workers, Obs: obs.Sink{Metrics: reg}})
		lp := w.AddLP("spin", nil, func(p *Proc, at float64, pl Payload) {
			p.Send(p.ID(), 1, pl) // run forever
		})
		w.SeedAt(lp, 0, Payload{})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() { done <- w.Run(ctx) }()
		cancel()
		if err := <-done; err != context.Canceled {
			t.Fatalf("workers=%d: Run = %v, want context.Canceled", workers, err)
		}
		if got, want := reg.Counter("des.committed").Value(), w.Stats().Committed; got != want {
			t.Fatalf("workers=%d: des.committed = %d after cancel, want %d", workers, got, want)
		}
	}
}

// TestWarpMetrics checks the speculation instruments are wired.
func TestWarpMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	seed := mix(0xC0FFEE, 3)
	w := fuzzModel(t, seed, 6, 6, 4, 0, obs.Sink{Metrics: reg})
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("des.committed").Value(); got != w.Stats().Committed {
		t.Fatalf("des.committed = %d, want %d", got, w.Stats().Committed)
	}
	if got := reg.Counter("des.rollbacks").Value(); got != w.Stats().Rollbacks {
		t.Fatalf("des.rollbacks = %d, want %d", got, w.Stats().Rollbacks)
	}
	if got := reg.Counter("des.antimessages").Value(); got != w.Stats().AntiMessages {
		t.Fatalf("des.antimessages = %d, want %d", got, w.Stats().AntiMessages)
	}
	if w.Stats().GVTPasses > 0 {
		if got, want := reg.Gauge("des.gvt").Value(), w.GVT(); got != want && !math.IsInf(want, -1) {
			t.Fatalf("des.gvt = %v, want %v", got, want)
		}
	}
}

// TestWarpPanics pins the API misuse panics.
func TestWarpPanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: no panic", name)
			}
		}()
		f()
	}
	w := NewWarp(WarpConfig{})
	lp := w.AddLP("a", nil, func(p *Proc, at float64, pl Payload) {
		p.Send(p.ID(), -1, Payload{})
	})
	expectPanic("negative seed time", func() { w.SeedAt(lp, -1, Payload{}) })
	expectPanic("Inf seed time", func() { w.SeedAt(lp, math.Inf(1), Payload{}) })
	expectPanic("NaN seed time", func() { w.SeedAt(lp, math.NaN(), Payload{}) })
	expectPanic("unknown LP", func() { w.SeedAt(lp+1, 0, Payload{}) })
	w.SeedAt(lp, 0, Payload{})
	expectPanic("negative delay", func() { _ = w.Run(context.Background()) })

	w2 := NewWarp(WarpConfig{Workers: 4})
	lp2 := w2.AddLP("b", nil, func(p *Proc, at float64, pl Payload) {
		if at > 0 {
			panic("model panic")
		}
		p.Send(p.ID(), 1, Payload{})
	})
	w2.SeedAt(lp2, 0, Payload{})
	expectPanic("model panic propagates from workers", func() { _ = w2.Run(context.Background()) })
}
