package mapreduce

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// The side paths — speculation and the subprocess streaming pipeline —
// run on the same dispatcher and run path as Run, so they inherit what
// Run has: fault injection and retries, spill resume, shuffle stats
// and the mapreduce.* counters.

func TestSpeculativeHonoursFaultPlan(t *testing.T) {
	lines := spillCorpus(3, 120)
	cfg := Config[string]{MapTasks: 6, ReduceTasks: 3, MaxAttempts: 8,
		Faults: &fault.Plan{Seed: 11, TaskFail: 0.3}}
	traced := func() *Job[string, string, int, string] {
		job := spillWordCount(nil)
		job.Config = cfg
		job.Config.Obs = obs.Sink{Tracer: obs.NewTracer(nil)}
		return job
	}
	plain := traced()
	want, wantStats, err := plain.Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	spec := traced()
	got, stats, err := spec.RunSpeculative(lines, SpecConfig{SpeculationAfter: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("speculative output under faults differs from Run's")
	}
	if stats.TaskRetries == 0 || stats.TaskRetries != wantStats.TaskRetries {
		t.Fatalf("TaskRetries = %d, Run's = %d", stats.TaskRetries, wantStats.TaskRetries)
	}
	if a, b := faultSchedule(spec.Config.Obs.Tracer), faultSchedule(plain.Config.Obs.Tracer); !reflect.DeepEqual(a, b) {
		t.Fatalf("fault schedule differs:\n%v\n%v", a, b)
	}
}

func TestSpeculativeResumesFromSpill(t *testing.T) {
	lines := spillCorpus(4, 80)
	dir := t.TempDir()
	want, _, err := spillWordCount(NewStringIntSpill(dir, "spec")).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := spillWordCount(NewStringIntSpill(dir, "spec")).RunSpeculative(lines,
		SpecConfig{SpeculationAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapTasksResumed == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed %d tasks, same output %v", stats.MapTasksResumed, reflect.DeepEqual(got, want))
	}
}

// TestSidePathsCountShuffle: speculation and streaming report the
// shuffle shape Run reports for the same job.
func TestSidePathsCountShuffle(t *testing.T) {
	lines := spillCorpus(5, 60)
	_, want, err := spillWordCount(nil).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	_, spec, err := spillWordCount(nil).RunSpeculative(lines, SpecConfig{SpeculationAfter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if spec.ShuffleRuns != want.ShuffleRuns || spec.MergePasses != want.MergePasses {
		t.Fatalf("speculative runs/passes %d/%d, Run's %d/%d", spec.ShuffleRuns, spec.MergePasses, want.ShuffleRuns, want.MergePasses)
	}
	requireTools(t, "awk")
	_, st, err := RunStreamingPipeline(lines, []string{"awk", `{for (i = 1; i <= NF; i++) print $i "\t1"}`},
		[]string{"cat"}, Config[string]{MapTasks: 8, ReduceTasks: 3})
	if err != nil {
		t.Fatal(err)
	}
	if st.ShuffleRuns == 0 || st.MergePasses != 3 {
		t.Fatalf("streaming runs/passes %d/%d", st.ShuffleRuns, st.MergePasses)
	}
}

// TestStreamingPipelineRetriesMapper: a mapper script that fails on its
// first run (it leaves a marker file) is retried under MaxAttempts.
func TestStreamingPipelineRetriesMapper(t *testing.T) {
	requireTools(t, "sh", "awk", "cat")
	marker := filepath.Join(t.TempDir(), "failed-once")
	mapper := []string{"sh", "-c", fmt.Sprintf(
		`if [ -e %q ]; then awk '{for (i = 1; i <= NF; i++) print $i "\t1"}'; else touch %q; exit 3; fi`, marker, marker)}
	out, stats, err := RunStreamingPipeline(corpus, mapper, []string{"cat"}, Config[string]{MapTasks: 1, MaxAttempts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.TaskRetries != 1 || stats.MapOutputs != 15 || len(out) != 15 {
		t.Fatalf("retries %d, map outputs %d, outputs %d; want 1, 15, 15", stats.TaskRetries, stats.MapOutputs, len(out))
	}
}

func TestStreamingPipelinePublishesCounters(t *testing.T) {
	requireTools(t, "awk", "cat")
	sink := obs.Sink{Metrics: obs.NewRegistry()}
	_, stats, err := RunStreamingPipeline(corpus, []string{"awk", `{for (i = 1; i <= NF; i++) print $i "\t1"}`},
		[]string{"cat"}, Config[string]{MapTasks: 2, ReduceTasks: 2, Obs: sink})
	if err != nil {
		t.Fatal(err)
	}
	c := sink.Metrics.Snapshot().Counters
	if c["mapreduce.tasks.map"] != 2 || c["mapreduce.records.in"] != int64(len(corpus)) ||
		c["mapreduce.groups"] != int64(stats.ReduceGroups) || c["mapreduce.records.out"] != int64(stats.Outputs) {
		t.Fatalf("counters %v for stats %+v", c, stats)
	}
}
