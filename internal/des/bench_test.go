package des

import (
	"context"
	"fmt"
	"testing"
)

// kernelModel builds a Warp whose handlers only forward: each of
// chains seed events hops hops times, to an LP and after a quantized
// delay both derived from its payload. LP state is nil, so nothing is
// saved and the model costs next to nothing: the run prices the
// kernel's queues, rollbacks and GVT alone.
func kernelModel(workers, nLP, chains, hops int) *Warp {
	w := NewWarp(WarpConfig{Workers: workers, Window: 0.5})
	h := func(p *Proc, at float64, pl Payload) {
		if pl.A == 0 {
			return
		}
		x := mix(uint64(uint32(pl.B)), uint64(pl.A))
		p.Send(LPID(x%uint64(nLP)), float64(1+(x>>8)%4)/4, Payload{A: pl.A - 1, B: int32(x)})
	}
	for i := 0; i < nLP; i++ {
		w.AddLP(fmt.Sprintf("lp%d", i), nil, h)
	}
	for c := 0; c < chains; c++ {
		w.SeedAt(LPID(c%nLP), float64(c%4)/4, Payload{A: int32(hops), B: int32(c)})
	}
	return w
}

// BenchmarkWarp runs kernelModel (8 LPs, 64 chains of 256 hops, about
// 16k events) on the sequential kernel and on two Time Warp workers.
func BenchmarkWarp(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			var st WarpStats
			for i := 0; i < b.N; i++ {
				w := kernelModel(workers, 8, 64, 256)
				if err := w.Run(context.Background()); err != nil {
					b.Fatal(err)
				}
				st = w.Stats()
			}
			b.ReportMetric(float64(st.RolledBack)/float64(st.Committed), "rolledback/event")
		})
	}
}

// holdDelay returns the next of a seeded stream of planet-like event
// delays: half are a 0.05 s credit latency, half a task of 0.2–2.2 s.
func holdDelay(x *uint64) float64 {
	*x = mix(*x, 0x9E3779B97F4A7C15)
	if *x&1 == 0 {
		return 0.05
	}
	return 0.2 + 2*float64(*x>>11)/(1<<53)
}

// BenchmarkEventQueue prices the event queue alone on the hold model
// at the planet scenario's average depth: about 600 events queued,
// and each pop followed by a push at the popped time plus a delay
// from holdDelay, the steady state of the sequential kernel.
func BenchmarkEventQueue(b *testing.B) {
	const size = 600
	var q eventQueue
	x, seq := uint64(1), uint64(0)
	for i := 0; i < size; i++ {
		q.push(message{key: Key{At: holdDelay(&x), Src: LPID(i % 16), Seq: seq}, dst: LPID(i % 16)})
		seq++
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := q.pop()
		m.key = Key{At: m.key.At + holdDelay(&x), Src: m.dst, Seq: seq}
		q.push(m)
		seq++
	}
}
