package des

import (
	"context"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// The sequential kernel's contract: des.Warp at Workers <= 1 runs
// every event on one heap in canonical key order. Handlers here keep
// test-side effects outside the LP state, which is safe only because
// the sequential kernel never rolls back.

// seqWarp builds a sequential Warp with one stateless LP running h.
func seqWarp(h Handler) (*Warp, LPID) {
	w := NewWarp(WarpConfig{Workers: 1})
	return w, w.AddLP("lp", nil, h)
}

func mustRun(t *testing.T, w *Warp) {
	t.Helper()
	if err := w.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestClockStartsAtZero(t *testing.T) {
	var times []float64
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) {
		times = append(times, p.Now())
		if pl.A == 0 {
			p.Send(p.ID(), 0, Payload{A: 1}) // zero delay stays at 0
		}
	})
	if now := w.lps[lp].Now(); now != 0 {
		t.Fatalf("Now before the run = %v", now)
	}
	w.SeedAt(lp, 0, Payload{})
	mustRun(t, w)
	if len(times) != 2 || times[0] != 0 || times[1] != 0 {
		t.Fatalf("times = %v, want [0 0]", times)
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var order []float64
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) { order = append(order, at) })
	for _, d := range []float64{5, 1, 3, 2, 4} {
		w.SeedAt(lp, d, Payload{})
	}
	mustRun(t, w)
	if !sort.Float64sAreSorted(order) || len(order) != 5 {
		t.Fatalf("events out of order: %v", order)
	}
	if last := order[len(order)-1]; last != 5 {
		t.Fatalf("final time %v, want 5", last)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	var order []int32
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) {
		order = append(order, pl.A)
		if pl.B == 0 && pl.A == 0 {
			// Same-time sends from one event fire in send order.
			for i := int32(0); i < 5; i++ {
				p.Send(p.ID(), 1, Payload{A: 10 + i, B: 1})
			}
		}
	})
	for i := int32(0); i < 10; i++ {
		w.SeedAt(lp, 1, Payload{A: i})
	}
	mustRun(t, w)
	want := []int32{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("ties not FIFO: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	var times []float64
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) {
		times = append(times, p.Now())
		if pl.A == 0 {
			p.Send(p.ID(), 2, Payload{A: 1})
		}
	})
	w.SeedAt(lp, 1, Payload{})
	mustRun(t, w)
	if len(times) != 2 || times[0] != 1 || times[1] != 3 {
		t.Fatalf("nested times = %v, want [1 3]", times)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	for _, bad := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("delay %v did not panic", bad)
				}
			}()
			w, lp := seqWarp(func(p *Proc, at float64, pl Payload) { p.Send(p.ID(), bad, Payload{}) })
			w.SeedAt(lp, 0, Payload{})
			_ = w.Run(context.Background())
		}()
	}
}

func TestAtBeforeNowPanics(t *testing.T) {
	w, lp := seqWarp(func(*Proc, float64, Payload) {})
	defer func() {
		if recover() == nil {
			t.Fatal("seed before time zero did not panic")
		}
	}()
	w.SeedAt(lp, -1, Payload{})
}

func TestNilFnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	NewWarp(WarpConfig{}).AddLP("lp", nil, nil)
}

func TestStepReturnsFalseWhenDrained(t *testing.T) {
	ran := 0
	w, _ := seqWarp(func(*Proc, float64, Payload) { ran++ })
	mustRun(t, w)
	if ran != 0 || w.Stats().Committed != 0 {
		t.Fatalf("empty simulation ran %d events, committed %d", ran, w.Stats().Committed)
	}
	w, lp := seqWarp(func(*Proc, float64, Payload) { ran++ })
	w.SeedAt(lp, 1, Payload{})
	mustRun(t, w)
	if ran != 1 || w.Stats().Committed != 1 {
		t.Fatalf("ran %d events, committed %d, want 1 and 1", ran, w.Stats().Committed)
	}
}

// quick-check: time is non-decreasing across any random schedule on
// several LPs, including events scheduled from inside events.
func TestQuickMonotonicClock(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		w := NewWarp(WarpConfig{Workers: 1})
		ok := true
		last := -1.0
		h := func(p *Proc, at float64, pl Payload) {
			if at < last || p.Now() != at {
				ok = false
			}
			last = at
			if pl.A < 3 {
				for i := 0; i < rng.Intn(3); i++ {
					dst := LPID(rng.Intn(len(w.lps)))
					p.Send(dst, rng.Float64()*10, Payload{A: pl.A + 1})
				}
			}
		}
		lps := []LPID{w.AddLP("a", nil, h), w.AddLP("b", nil, h), w.AddLP("c", nil, h)}
		for i := 0; i < 5+rng.Intn(10); i++ {
			w.SeedAt(lps[rng.Intn(len(lps))], rng.Float64()*100, Payload{})
		}
		if err := w.Run(context.Background()); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEventTimeAccessor(t *testing.T) {
	var keys []Key
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) {
		if p.Key().At != at || p.Now() != at {
			t.Errorf("Key().At = %v, Now = %v, at = %v", p.Key().At, p.Now(), at)
		}
		keys = append(keys, p.Key())
		if pl.A == 0 {
			p.Send(p.ID(), 0, Payload{A: 1})
			p.Send(p.ID(), 1.5, Payload{A: 2})
		}
	})
	w.SeedAt(lp, 3.5, Payload{})
	mustRun(t, w)
	want := []Key{
		{At: 3.5, Depth: 0, Src: initSrc, Seq: 0},
		{At: 3.5, Depth: 1, Src: lp, Seq: 0},
		{At: 5, Depth: 0, Src: lp, Seq: 1},
	}
	if len(keys) != len(want) {
		t.Fatalf("keys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("key %d = %+v, want %+v", i, keys[i], want[i])
		}
		if i > 0 && !keys[i-1].Before(keys[i]) {
			t.Fatalf("keys not ascending: %v", keys)
		}
	}
}

func TestRunContextDrainsWhenUncancelled(t *testing.T) {
	ran := 0
	w, lp := seqWarp(func(*Proc, float64, Payload) { ran++ })
	for i := 0; i < 200; i++ {
		w.SeedAt(lp, float64(i), Payload{})
	}
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("Run = %v", err)
	}
	if ran != 200 {
		t.Fatalf("ran %d of 200 events", ran)
	}
}

func TestRunContextStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ran := 0
	// A self-perpetuating event stream: without cancellation this
	// would never drain.
	w, lp := seqWarp(func(p *Proc, at float64, pl Payload) {
		ran++
		if ran == 100 {
			cancel()
		}
		p.Send(p.ID(), 1, Payload{})
	})
	w.SeedAt(lp, 0, Payload{})
	if err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
	// Cancellation is polled every 64 events, so at most one extra
	// batch runs past the cancel point.
	if ran < 100 || ran > 200 {
		t.Fatalf("ran %d events, want ~100", ran)
	}
}

func TestRunContextAlreadyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	w, lp := seqWarp(func(*Proc, float64, Payload) { t.Fatal("event ran under cancelled context") })
	w.SeedAt(lp, 0, Payload{})
	if err := w.Run(ctx); err != context.Canceled {
		t.Fatalf("Run = %v, want context.Canceled", err)
	}
}
