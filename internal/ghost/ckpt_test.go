package ghost

import (
	"testing"

	"repro/internal/ckpt"
	"repro/internal/fault"
	"repro/internal/sandpile"
)

func ghostCheckpointer(t *testing.T, dir string, every int64) *ckpt.Checkpointer {
	t.Helper()
	store, err := ckpt.Open(dir, "ghost")
	if err != nil {
		t.Fatal(err)
	}
	return ckpt.NewCheckpointer(store, every, true)
}

// A distributed run cut short by MaxIters after saving durable round
// snapshots, then restarted from the same initial grid, must converge
// on the identical fixed point with identical Iterations/Topples/
// Absorbed totals.
func TestGhostKillResumeDeterminism(t *testing.T) {
	init := sandpile.Center(9000).Build(48, 40, nil)
	ref := init.Clone()
	want, err := New(ref, WithRanks(3), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Iterations < 12 {
		t.Fatalf("reference too short to interrupt: %+v", want)
	}

	dir := t.TempDir()
	cut := init.Clone()
	if _, err := New(cut, WithRanks(3), WithWidth(2),
		WithMaxIters(want.Iterations/2),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run(); err != nil {
		t.Fatalf("interrupted segment: %v", err)
	}

	g := init.Clone()
	got, err := New(g, WithRanks(3), WithWidth(2),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run()
	if err != nil {
		t.Fatalf("resumed segment: %v", err)
	}
	if got.Iterations != want.Iterations || got.Topples != want.Topples || got.Absorbed != want.Absorbed {
		t.Fatalf("resumed totals iters=%d topples=%d absorbed=%d, want %d/%d/%d",
			got.Iterations, got.Topples, got.Absorbed,
			want.Iterations, want.Topples, want.Absorbed)
	}
	if !g.Equal(ref) {
		t.Fatalf("resumed fixed point differs: %v", g.Diff(ref, 5))
	}
}

// Snapshots are decomposition-independent: a strip run's snapshot
// resumes under a block decomposition (and a different rank count),
// because restore happens before carving.
func TestGhostResumeAcrossDecompositions(t *testing.T) {
	init := sandpile.Uniform(6).Build(36, 36, nil)
	want := oracle(init)

	dir := t.TempDir()
	cut := init.Clone()
	if _, err := New(cut, WithRanks(4), WithWidth(1),
		WithMaxIters(8),
		WithCheckpoint(ghostCheckpointer(t, dir, 2))).Run(); err != nil {
		t.Fatal(err)
	}

	g := init.Clone()
	if _, err := New(g, WithProcessGrid(2, 3), WithWidth(2),
		WithCheckpoint(ghostCheckpointer(t, dir, 2))).Run(); err != nil {
		t.Fatal(err)
	}
	if !g.Equal(want) {
		t.Fatalf("strip→block resume: wrong fixed point: %v", g.Diff(want, 5))
	}
}

// Durable checkpoints compose with fault injection: the same -faults
// seed replays identically across a kill/resume because injected
// decisions are keyed by (seed, rank, round), and rounds are global.
func TestGhostKillResumeWithFaults(t *testing.T) {
	init := sandpile.Center(6000).Build(40, 40, nil)
	plan := &fault.Plan{Seed: 5, Crashes: []fault.Crash{{Rank: 1, Round: 4}}}

	ref := init.Clone()
	want, err := New(ref, WithRanks(3), WithWidth(2),
		WithFaults(plan)).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cut := init.Clone()
	if _, err := New(cut, WithRanks(3), WithWidth(2),
		WithFaults(plan),
		WithMaxIters(want.Iterations/2),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run(); err != nil {
		t.Fatal(err)
	}

	g := init.Clone()
	got, err := New(g, WithRanks(3), WithWidth(2),
		WithFaults(plan),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Topples != want.Topples {
		t.Fatalf("faulty resume: iters=%d topples=%d, want %d/%d",
			got.Iterations, got.Topples, want.Iterations, want.Topples)
	}
	if !g.Equal(ref) {
		t.Fatalf("faulty resume fixed point differs: %v", g.Diff(ref, 5))
	}
}

// A 2-D run resumes from its own snapshots too.
func TestGhost2DKillResume(t *testing.T) {
	init := sandpile.Center(8000).Build(36, 36, nil)
	ref := init.Clone()
	want, err := New(ref, WithProcessGrid(2, 2), WithWidth(2)).Run()
	if err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	cut := init.Clone()
	if _, err := New(cut, WithProcessGrid(2, 2), WithWidth(2),
		WithMaxIters(want.Iterations/2),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run(); err != nil {
		t.Fatal(err)
	}

	g := init.Clone()
	got, err := New(g, WithProcessGrid(2, 2), WithWidth(2),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run()
	if err != nil {
		t.Fatal(err)
	}
	if got.Iterations != want.Iterations || got.Topples != want.Topples || !g.Equal(ref) {
		t.Fatalf("2-D resume diverged: got iters=%d topples=%d want %d/%d",
			got.Iterations, got.Topples, want.Iterations, want.Topples)
	}
}

// A snapshot sized for a different grid is rejected with a clear
// error instead of silently corrupting the run.
func TestGhostResumeSizeMismatch(t *testing.T) {
	init := sandpile.Center(5000).Build(32, 32, nil)
	dir := t.TempDir()
	if _, err := New(init.Clone(), WithRanks(2), WithWidth(1),
		WithMaxIters(6),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run(); err != nil {
		t.Fatal(err)
	}
	other := sandpile.Center(5000).Build(24, 24, nil)
	clone := other.Clone()
	if _, err := New(other, WithRanks(2), WithWidth(1),
		WithCheckpoint(ghostCheckpointer(t, dir, 1))).Run(); err == nil {
		t.Fatal("mismatched grid size resumed without error")
	}
	if !other.Equal(clone) {
		t.Fatal("the rejected snapshot was written into the grid")
	}
}
