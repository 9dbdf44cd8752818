package fault

import (
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestParseRoundTrip(t *testing.T) {
	p, err := Parse("seed=7,crash=1@3+2@5,crashp=0.1,crashwindow=6,drop=0.05,dup=0.02,delayp=0.1,delay=2ms,hostfail=0.1,repair=8,retrybase=0.5,retryfactor=3,retrymax=30,attempts=8,stall=50,taskfail=0.25")
	if err != nil {
		t.Fatal(err)
	}
	want := &Plan{
		Seed:        7,
		Crashes:     []Crash{{Rank: 1, Round: 3}, {Rank: 2, Round: 5}},
		CrashProb:   0.1,
		CrashWindow: 6,
		Drop:        0.05, Dup: 0.02, DelayProb: 0.1,
		Delay:     2 * time.Millisecond,
		HostFail:  0.1,
		RepairSec: 8,
		Retry:     RetryPolicy{BaseSec: 0.5, Factor: 3, MaxSec: 30, MaxAttempts: 8},
		StallIter: 50,
		TaskFail:  0.25,
	}
	if !reflect.DeepEqual(p, want) {
		t.Fatalf("Parse mismatch:\n got %+v\nwant %+v", p, want)
	}
}

// TestParseErrors is the malformed-spec contract: every bad -faults
// spec must be rejected with a descriptive error naming the offending
// key — never silently accepted (last-wins duplicates, negative
// iterations, and out-of-range probabilities were all accepted before
// PR 5).
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, spec, wantErr string
	}{
		{"empty", "", "empty spec"},
		{"noValue", "seed", "key=value"},
		{"badSeed", "seed=x", `bad seed "x"`},
		{"unknownKey", "unknown=1", `unknown spec key "unknown"`},
		{"crashNoRound", "crash=1", "rank@round"},
		{"crashBadRank", "crash=x@2", `bad crash "x@2"`},
		{"crashNegativeRank", "crash=-1@2", `bad crash "-1@2"`},
		{"crashRoundZero", "crash=1@0", "round must be >= 1"},
		{"crashRoundNegative", "crash=1@-4", "round must be >= 1"},
		{"crashDuplicateEntry", "crash=1@3+1@3", `duplicate crash entry "1@3"`},
		{"duplicateKey", "seed=1,seed=2", `duplicate key "seed"`},
		{"duplicateCrashKey", "crash=1@3,crash=2@5", `duplicate key "crash"`},
		{"duplicateProbKey", "drop=0.1,drop=0.2", `duplicate key "drop"`},
		{"dropNegative", "drop=-1", `bad drop "-1"`},
		{"dropNotANumber", "drop=x", `bad drop "x"`},
		{"dropOverOne", "drop=1.5", "probability in [0,1]"},
		{"crashpOverOne", "crashp=2", "probability in [0,1]"},
		{"crashpNegative", "crashp=-0.5", "probability in [0,1]"},
		{"taskfailOverOne", "taskfail=7", "probability in [0,1]"},
		{"crashwindowZero", "crashwindow=0", "at least 1 iteration"},
		{"crashwindowNegative", "crashwindow=-3", "at least 1 iteration"},
		{"delayNoUnit", "delay=5", `bad delay "5"`},
		{"delayNegative", "delay=-2ms", "non-negative duration"},
		{"attemptsNegative", "attempts=-1", "non-negative count"},
		{"stallNegative", "stall=-2", `bad stall "-2"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.spec)
			if err == nil {
				t.Fatalf("Parse(%q): want error containing %q, got nil", tc.spec, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Parse(%q): error %q does not mention %q", tc.spec, err, tc.wantErr)
			}
		})
	}
}

// Boundary values stay accepted: probabilities of exactly 0 and 1,
// round 1, window 1.
func TestParseBoundaryValues(t *testing.T) {
	for _, spec := range []string{
		"drop=0", "drop=1", "crashp=1,crashwindow=1", "crash=0@1", "attempts=0", "delay=0s",
	} {
		if _, err := Parse(spec); err != nil {
			t.Errorf("Parse(%q): unexpected error %v", spec, err)
		}
	}
}

func TestBackoffGrowthAndCap(t *testing.T) {
	r := RetryPolicy{BaseSec: 1, Factor: 2, MaxSec: 10}
	for i, want := range []float64{1, 2, 4, 8, 10, 10} {
		if got := r.Backoff(i + 1); got != want {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, want)
		}
	}
	// Zero value takes the 1s/2x/60s defaults.
	var def RetryPolicy
	if got := def.Backoff(1); got != 1 {
		t.Errorf("default Backoff(1) = %v, want 1", got)
	}
	if got := def.Backoff(20); got != 60 {
		t.Errorf("default Backoff(20) = %v, want 60", got)
	}
}

func TestNilInjectorInjectsNothing(t *testing.T) {
	var in *Injector
	if in.CrashAt(0, 1) || in.DeviceStall(1) || in.TaskFails("map", 1, 0) {
		t.Fatal("nil injector fired a fault")
	}
	if f := in.MessageFate(0, 1, 1); f != Deliver {
		t.Fatalf("nil injector fate = %v, want Deliver", f)
	}
	if _, fails := in.HostFailureDecision("site", 0, 1); fails {
		t.Fatal("nil injector host failure")
	}
	if s := in.Schedule(); s != nil {
		t.Fatalf("nil injector schedule = %v", s)
	}
	if NewInjector(nil, obs.Sink{}) != nil {
		t.Fatal("NewInjector(nil) != nil")
	}
}

// drive exercises every injector decision path in a randomized
// goroutine interleaving and returns the resulting schedule.
func drive(t *testing.T, plan Plan) []string {
	t.Helper()
	in := NewInjector(&plan, obs.Sink{Metrics: obs.NewRegistry()})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 1; r <= 8; r++ {
				in.CrashAt(w, r)
			}
			for seq := uint64(1); seq <= 50; seq++ {
				in.MessageFate(w, (w+1)%4, seq)
			}
			for task := 0; task < 20; task++ {
				for attempt := 1; attempt <= 3; attempt++ {
					if frac, fails := in.HostFailureDecision("local", w*20+task, attempt); fails {
						in.NoteHostFailure("local", w*20+task, attempt, frac)
					}
					in.TaskFails("map", attempt, w, task)
				}
			}
			for iter := 1; iter <= 60; iter++ {
				in.DeviceStall(iter)
			}
		}(w)
	}
	wg.Wait()
	return in.Schedule()
}

func TestScheduleDeterministicAcrossInterleavings(t *testing.T) {
	plan := Plan{
		Seed:      42,
		Crashes:   []Crash{{Rank: 1, Round: 3}},
		CrashProb: 0.3,
		Drop:      0.1, Dup: 0.05, DelayProb: 0.1,
		HostFail: 0.15, TaskFail: 0.2, StallIter: 40,
	}
	first := drive(t, plan)
	if len(first) == 0 {
		t.Fatal("fault schedule empty; plan rates should fire")
	}
	for i := 0; i < 5; i++ {
		if got := drive(t, plan); !reflect.DeepEqual(got, first) {
			t.Fatalf("run %d schedule diverged:\n got %v\nwant %v", i, got, first)
		}
	}
	// A different seed must produce a different schedule.
	other := plan
	other.Seed = 43
	if reflect.DeepEqual(drive(t, other), first) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestOneShotEventsFireOnce(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Crashes: []Crash{{Rank: 2, Round: 4}}, StallIter: 10}, obs.Sink{})
	if !in.CrashAt(2, 4) {
		t.Fatal("scheduled crash did not fire")
	}
	if in.CrashAt(2, 4) {
		t.Fatal("crash fired twice (replayed round after recovery would re-kill)")
	}
	if !in.DeviceStall(10) {
		t.Fatal("stall did not fire")
	}
	if in.DeviceStall(11) {
		t.Fatal("stall fired twice")
	}
}

func TestLinkReliableWithoutInjector(t *testing.T) {
	l := NewLink[int](nil, 0, 1)
	abort := make(chan struct{})
	for i := 1; i <= 10; i++ {
		if !l.Send(i, abort) {
			t.Fatal("send failed")
		}
		got, ok := l.Recv(abort)
		if !ok || got != i {
			t.Fatalf("recv = %d,%v, want %d,true", got, ok, i)
		}
	}
}

func TestLinkDropRecoversViaRetransmit(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Drop: 1}, obs.Sink{Metrics: obs.NewRegistry()})
	l := NewLink[string](in, 0, 1)
	abort := make(chan struct{})
	if !l.Send("halo", abort) {
		t.Fatal("send failed")
	}
	got, ok := l.Recv(abort)
	if !ok || got != "halo" {
		t.Fatalf("recv = %q,%v, want halo,true (retransmit)", got, ok)
	}
	// Nothing more sent, and the sender gone: the receiver learns it.
	l.Close()
	if _, ok := l.Recv(abort); ok {
		t.Fatal("recv succeeded on a closed link with nothing left to deliver")
	}
}

func TestLinkDupIsDeduped(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Dup: 1}, obs.Sink{})
	l := NewLink[int](in, 0, 1)
	abort := make(chan struct{})
	l.Send(7, abort)
	if got, ok := l.Recv(abort); !ok || got != 7 {
		t.Fatalf("first recv = %d,%v", got, ok)
	}
	l.Send(8, abort)
	// The duplicate of 7's successor should be skipped transparently:
	// next fresh payload is 8, not a replay of 7.
	if got, ok := l.Recv(abort); !ok || got != 8 {
		t.Fatalf("second recv = %d,%v, want 8,true", got, ok)
	}
}

func TestLinkDelayHonored(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, DelayProb: 1, Delay: 10 * time.Millisecond}, obs.Sink{})
	l := NewLink[int](in, 0, 1)
	abort := make(chan struct{})
	start := time.Now()
	l.Send(1, abort)
	if got, ok := l.Recv(abort); !ok || got != 1 {
		t.Fatalf("recv = %d,%v", got, ok)
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("delayed message arrived after %v, want >= 10ms", el)
	}
}

func TestLinkAbort(t *testing.T) {
	l := NewLink[int](nil, 0, 1)
	abort := make(chan struct{})
	close(abort)
	if _, ok := l.Recv(abort); ok {
		t.Fatal("recv succeeded on closed abort")
	}
}

// A receiver waiting out an injected delay returns as soon as abort
// closes, not when the delay ends.
func TestLinkDelayAborts(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, DelayProb: 1, Delay: time.Hour}, obs.Sink{})
	l := NewLink[int](in, 0, 1)
	abort := make(chan struct{})
	l.Send(1, abort)
	time.AfterFunc(10*time.Millisecond, func() { close(abort) })
	start := time.Now()
	if _, ok := l.Recv(abort); ok {
		t.Fatal("recv delivered a message delayed by an hour")
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("aborted recv returned after %v", el)
	}
}

// Close delivers everything sent before it, in order, duplicates
// discarded, and only then reports the link closed.
func TestLinkCloseDeliversInOrder(t *testing.T) {
	in := NewInjector(&Plan{Seed: 1, Dup: 1}, obs.Sink{})
	l := NewLink[int](in, 0, 1)
	l.Send(1, nil)
	l.Send(2, nil)
	l.Close()
	for want := 1; want <= 2; want++ {
		if got, ok := l.Recv(nil); !ok || got != want {
			t.Fatalf("recv = %d,%v, want %d,true", got, ok, want)
		}
	}
	if _, ok := l.Recv(nil); ok {
		t.Fatal("recv succeeded past the close")
	}
}
