package ghost

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/obs"
)

func centerLoaded(h, w int, v uint32) *grid.Grid {
	g := grid.New(h, w)
	g.Set(h/2, w/2, v)
	return g
}

func TestRunReportsObs(t *testing.T) {
	sink := obs.Sink{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(nil)}
	g := centerLoaded(32, 32, 4096)
	rep, err := New(g, WithRanks(2), WithWidth(2), WithObs(sink)).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := sink.Metrics.Snapshot()
	if s.Counters["ghost.halo.messages"] != int64(rep.Messages) || rep.Messages == 0 {
		t.Fatalf("halo messages counter = %d, report = %d",
			s.Counters["ghost.halo.messages"], rep.Messages)
	}
	if s.Counters["ghost.halo.bytes"] != int64(rep.BytesSent) {
		t.Fatalf("halo bytes counter = %d, report = %d",
			s.Counters["ghost.halo.bytes"], rep.BytesSent)
	}
	if s.Counters["ghost.cells.redundant"] != int64(rep.RedundantCells) {
		t.Fatalf("redundant counter = %d, report = %d",
			s.Counters["ghost.cells.redundant"], rep.RedundantCells)
	}
	// Both ranks produced exchange and compute spans on the ghost track.
	kinds := map[int]map[string]bool{}
	for _, sp := range sink.Tracer.Spans() {
		if sink.Tracer.ProcessName(sp.Track.PID) != "ghost" {
			continue
		}
		if kinds[sp.Track.TID] == nil {
			kinds[sp.Track.TID] = map[string]bool{}
		}
		kinds[sp.Track.TID][sp.Name] = true
	}
	if len(kinds) != 2 {
		t.Fatalf("spans cover %d ranks, want 2: %v", len(kinds), kinds)
	}
	for tid, k := range kinds {
		if !k["exchange"] || !k["compute"] {
			t.Fatalf("rank %d missing span kinds: %v", tid, k)
		}
	}
}

func TestRun2DReportsObs(t *testing.T) {
	sink := obs.Sink{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(nil)}
	g := centerLoaded(32, 32, 4096)
	rep, err := New(g, WithProcessGrid(2, 2), WithWidth(2), WithObs(sink)).Run()
	if err != nil {
		t.Fatal(err)
	}
	s := sink.Metrics.Snapshot()
	if s.Counters["ghost.halo.messages"] != int64(rep.Messages) || rep.Messages == 0 {
		t.Fatalf("halo messages counter = %d, report = %d",
			s.Counters["ghost.halo.messages"], rep.Messages)
	}
	ranks := map[int]bool{}
	for _, sp := range sink.Tracer.Spans() {
		if sink.Tracer.ProcessName(sp.Track.PID) == "ghost2d" {
			ranks[sp.Track.TID] = true
		}
	}
	if len(ranks) != 4 {
		t.Fatalf("spans cover %d ranks, want 4", len(ranks))
	}
}
