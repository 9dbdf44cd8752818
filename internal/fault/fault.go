// Package fault is the deterministic, seed-driven fault-injection
// layer every substrate of the reproduction can be run under: rank
// crashes at a chosen round (ghost), halo-message drop/delay/
// duplication (ghost links), simulated-device stalls (hetero),
// workflow-host failures realized as DES events (platform/wfsched),
// and map/reduce task failures (mapreduce).
//
// The design contract mirrors internal/obs: a nil *Injector is a
// valid no-faults sink, so substrates query it unconditionally; and
// every decision is a pure function of (seed, fault identity), never
// of goroutine interleaving — two runs with the same Plan produce
// byte-identical fault schedules (Injector.Schedule), which the tests
// enforce. One-shot events (a rank crash, a device stall) fire
// exactly once per run even when recovery replays the surrounding
// work.
package fault

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// ErrInjected marks an error introduced by the injector rather than
// the computation; retry layers treat it like any transient failure.
var ErrInjected = fmt.Errorf("fault: injected failure")

// Crash schedules one simulated rank death: the rank goroutine goes
// silent at the start of the given halo round (1-based).
type Crash struct {
	Rank, Round int
}

// RetryPolicy is Parsl-style bounded exponential backoff for task
// re-execution, in simulated seconds (the DES substrates' unit).
type RetryPolicy struct {
	// BaseSec is the first retry delay; 0 means 1 s.
	BaseSec float64
	// Factor multiplies the delay per additional attempt; 0 means 2.
	Factor float64
	// MaxSec caps the delay; 0 means 60 s.
	MaxSec float64
	// MaxAttempts bounds attempts per task; 0 means unlimited.
	MaxAttempts int
}

func (r RetryPolicy) withDefaults() RetryPolicy {
	if r.BaseSec <= 0 {
		r.BaseSec = 1
	}
	if r.Factor <= 1 {
		r.Factor = 2
	}
	if r.MaxSec <= 0 {
		r.MaxSec = 60
	}
	return r
}

// Backoff returns the delay before re-running a task whose attempt-th
// execution just failed: Base·Factor^(attempt-1), capped at Max.
func (r RetryPolicy) Backoff(attempt int) float64 {
	r = r.withDefaults()
	d := r.BaseSec
	for i := 1; i < attempt; i++ {
		d *= r.Factor
		if d >= r.MaxSec {
			return r.MaxSec
		}
	}
	if d > r.MaxSec {
		return r.MaxSec
	}
	return d
}

// Plan declares what to inject. The zero value injects nothing; Seed
// plus the rates fully determine the fault schedule.
type Plan struct {
	// Seed drives every probabilistic decision.
	Seed int64

	// Crashes lists explicit rank deaths. CrashProb additionally
	// crashes each rank with that probability, at a round drawn
	// uniformly from [1, CrashWindow] (default window 4).
	Crashes     []Crash
	CrashProb   float64
	CrashWindow int

	// Drop, Dup, and DelayProb are per-halo-message rates; Delay is
	// the added latency when DelayProb fires (default 1ms).
	Drop, Dup, DelayProb float64
	Delay                time.Duration

	// HostFail is the per-task-attempt probability that the host
	// executing it fails mid-task; the failure point is a deterministic
	// fraction of the attempt's duration. RepairSec is how long the
	// failed slot stays down (default 5 simulated seconds).
	HostFail  float64
	RepairSec float64
	// Retry is the task re-execution backoff policy.
	Retry RetryPolicy

	// StallIter stalls the simulated accelerator at this iteration
	// (1-based; 0 = never): its in-flight tiles are reclaimed by the
	// CPU pool and the device stays offline.
	StallIter int

	// TaskFail is the per-attempt failure probability for map/reduce
	// tasks (absorbed by the mapreduce retry budget).
	TaskFail float64
}

func (p *Plan) withDefaults() Plan {
	q := *p
	if q.CrashWindow <= 0 {
		q.CrashWindow = 4
	}
	if q.Delay <= 0 {
		q.Delay = time.Millisecond
	}
	if q.RepairSec <= 0 {
		q.RepairSec = 5
	}
	return q
}

// Parse builds a Plan from the comma-separated key=value spec the
// -faults flag of every cmd accepts, e.g.
//
//	seed=7,crash=1@2+3@4,drop=0.05,delay=2ms,hostfail=0.1,stall=50
//
// Keys: seed, crash (rank@round, +-separated), crashp, crashwindow,
// drop, dup, delayp, delay, hostfail, repair, retrybase, retryfactor,
// retrymax, attempts, stall, taskfail.
func Parse(spec string) (*Plan, error) {
	p := &Plan{}
	if strings.TrimSpace(spec) == "" {
		return nil, fmt.Errorf("fault: empty spec")
	}
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("fault: bad spec entry %q (want key=value)", part)
		}
		key, val := kv[0], kv[1]
		if seen[key] {
			return nil, fmt.Errorf("fault: duplicate key %q (each key may appear once; join crashes with +)", key)
		}
		seen[key] = true
		// num parses a float value; NaN and ±Inf are errors, so every
		// float key reports them as a bad value of that key.
		num := func() (float64, error) {
			v, err := strconv.ParseFloat(val, 64)
			if err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
				err = fmt.Errorf("fault: non-finite %s %q", key, val)
			}
			return v, err
		}
		switch key {
		case "seed":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fault: bad seed %q", val)
			}
			p.Seed = n
		case "crash":
			for _, c := range strings.Split(val, "+") {
				rr := strings.SplitN(c, "@", 2)
				if len(rr) != 2 {
					return nil, fmt.Errorf("fault: bad crash %q (want rank@round)", c)
				}
				rank, err1 := strconv.Atoi(rr[0])
				round, err2 := strconv.Atoi(rr[1])
				if err1 != nil || err2 != nil || rank < 0 {
					return nil, fmt.Errorf("fault: bad crash %q", c)
				}
				if round < 1 {
					return nil, fmt.Errorf("fault: bad crash %q (round must be >= 1)", c)
				}
				for _, prev := range p.Crashes {
					if prev.Rank == rank && prev.Round == round {
						return nil, fmt.Errorf("fault: duplicate crash entry %q", c)
					}
				}
				p.Crashes = append(p.Crashes, Crash{Rank: rank, Round: round})
			}
		case "crashp":
			v, err := num()
			if err != nil || v < 0 || v > 1 {
				return nil, fmt.Errorf("fault: bad crashp %q (want probability in [0,1])", val)
			}
			p.CrashProb = v
		case "crashwindow":
			n, err := strconv.Atoi(val)
			if err != nil {
				return nil, fmt.Errorf("fault: bad crashwindow %q", val)
			}
			if n < 1 {
				return nil, fmt.Errorf("fault: bad crashwindow %q (want at least 1 iteration)", val)
			}
			p.CrashWindow = n
		case "drop", "dup", "delayp", "hostfail", "taskfail", "repair", "retrybase", "retryfactor", "retrymax":
			v, err := num()
			if err != nil || v < 0 {
				return nil, fmt.Errorf("fault: bad %s %q", key, val)
			}
			switch key {
			case "drop", "dup", "delayp", "hostfail", "taskfail":
				if v > 1 {
					return nil, fmt.Errorf("fault: bad %s %q (want probability in [0,1])", key, val)
				}
			}
			switch key {
			case "drop":
				p.Drop = v
			case "dup":
				p.Dup = v
			case "delayp":
				p.DelayProb = v
			case "hostfail":
				p.HostFail = v
			case "taskfail":
				p.TaskFail = v
			case "repair":
				p.RepairSec = v
			case "retrybase":
				p.Retry.BaseSec = v
			case "retryfactor":
				p.Retry.Factor = v
			case "retrymax":
				p.Retry.MaxSec = v
			}
		case "delay":
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return nil, fmt.Errorf("fault: bad delay %q (want non-negative duration)", val)
			}
			p.Delay = d
		case "attempts":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: bad attempts %q (want non-negative count)", val)
			}
			p.Retry.MaxAttempts = n
		case "stall":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return nil, fmt.Errorf("fault: bad stall %q", val)
			}
			p.StallIter = n
		default:
			return nil, fmt.Errorf("fault: unknown spec key %q", key)
		}
	}
	return p, nil
}

// Fate is the injector's verdict on one message.
type Fate int

const (
	// Deliver passes the message through untouched.
	Deliver Fate = iota
	// Drop loses the message; the receiver recovers it from the
	// sender's retransmit buffer after a timeout.
	Drop
	// Dup delivers the message twice; sequence numbers dedupe it.
	Dup
	// Delay holds delivery for Plan.Delay.
	Delay
)

// Injector answers fault queries deterministically from a Plan. A nil
// *Injector injects nothing, so substrates query it unconditionally.
// All methods are safe for concurrent use.
type Injector struct {
	plan Plan

	mu    sync.Mutex
	fired map[string]bool // one-shot events already consumed
	log   []string        // fired decisions, for Schedule()

	tr    *obs.Tracer
	track obs.TrackID
	lg    *obs.Logger

	cInjected, cCrashes, cDrop, cDelay, cDup, cRetransmit *obs.Counter
	cHostFail, cTaskRetry, cStalls, cTaskFail, cRecovery  *obs.Counter
}

// NewInjector builds an injector for the plan, reporting into the
// sink: every fired fault bumps a fault.* counter and lands as an
// instant on the "fault" trace track. A nil plan yields a nil
// (no-fault) injector.
func NewInjector(p *Plan, sink obs.Sink) *Injector {
	if p == nil {
		return nil
	}
	in := &Injector{plan: p.withDefaults(), fired: map[string]bool{}}
	if tr := sink.Tracer; tr != nil {
		in.tr = tr
		in.track = tr.Track("fault", 0, "injected faults")
	}
	in.lg = sink.Log  // nil-safe: events vanish without a logger
	m := sink.Metrics // nil registry hands out nil instruments
	in.cInjected = m.Counter("fault.injected")
	in.cCrashes = m.Counter("fault.rank.crashes")
	in.cDrop = m.Counter("fault.msg.dropped")
	in.cDelay = m.Counter("fault.msg.delayed")
	in.cDup = m.Counter("fault.msg.duplicated")
	in.cRetransmit = m.Counter("fault.msg.retransmits")
	in.cHostFail = m.Counter("fault.host.failures")
	in.cTaskRetry = m.Counter("fault.task.retries")
	in.cStalls = m.Counter("fault.device.stalls")
	in.cTaskFail = m.Counter("fault.task.failures")
	in.cRecovery = m.Counter("fault.recoveries")
	return in
}

// Plan returns the (defaulted) plan the injector runs; zero on nil.
func (in *Injector) Plan() Plan {
	if in == nil {
		return Plan{}
	}
	return in.plan
}

// Retry returns the plan's retry policy (defaults applied).
func (in *Injector) Retry() RetryPolicy {
	if in == nil {
		return RetryPolicy{}.withDefaults()
	}
	return in.plan.Retry.withDefaults()
}

// note records a fired fault in the schedule log, bumps counters, and
// publishes a structured warn-level event on the live /events stream.
func (in *Injector) note(c *obs.Counter, entry string) {
	in.cInjected.Inc()
	c.Inc()
	in.mu.Lock()
	in.log = append(in.log, entry)
	in.mu.Unlock()
	if in.tr != nil {
		in.tr.Instant(in.track, entry, in.tr.Now())
	}
	in.lg.Event(obs.LevelWarn, "fault", entry)
}

// fireOnce consumes a one-shot event key, reporting whether this call
// was the first to fire it.
func (in *Injector) fireOnce(key string) bool {
	in.mu.Lock()
	defer in.mu.Unlock()
	if in.fired[key] {
		return false
	}
	in.fired[key] = true
	return true
}

// CrashAt reports whether the given rank dies at the start of the
// given round. Each rank crashes at most once per run: after a crash
// fires (and the rank is later restarted from a checkpoint), replays
// of the same round proceed normally.
func (in *Injector) CrashAt(rank, round int) bool {
	if in == nil {
		return false
	}
	hit := false
	for _, c := range in.plan.Crashes {
		if c.Rank == rank && c.Round == round {
			hit = true
			break
		}
	}
	if !hit && in.plan.CrashProb > 0 &&
		in.u01("crash", rank) < in.plan.CrashProb &&
		round == 1+int(in.h("crashround", rank)%uint64(in.plan.CrashWindow)) {
		hit = true
	}
	if !hit || !in.fireOnce(fmt.Sprintf("crash:%d", rank)) {
		return false
	}
	in.note(in.cCrashes, fmt.Sprintf("crash rank=%d round=%d", rank, round))
	return true
}

// MessageFate decides what happens to the seq-th message from one
// endpoint to another. Deliver on nil.
func (in *Injector) MessageFate(from, to int, seq uint64) Fate {
	if in == nil {
		return Deliver
	}
	u := in.u01("msg", from, to, int(seq))
	switch {
	case u < in.plan.Drop:
		in.note(in.cDrop, fmt.Sprintf("msg drop %d->%d seq=%d", from, to, seq))
		return Drop
	case u < in.plan.Drop+in.plan.Dup:
		in.note(in.cDup, fmt.Sprintf("msg dup %d->%d seq=%d", from, to, seq))
		return Dup
	case u < in.plan.Drop+in.plan.Dup+in.plan.DelayProb:
		in.note(in.cDelay, fmt.Sprintf("msg delay %d->%d seq=%d", from, to, seq))
		return Delay
	}
	return Deliver
}

// MessageDelay returns the latency added to Delay-fated messages.
func (in *Injector) MessageDelay() time.Duration {
	if in == nil {
		return 0
	}
	return in.plan.Delay
}

// HostFailureDecision decides whether the attempt-th execution of a
// site's task fails mid-run, and if so at which fraction of its
// duration. It has no side effects (no schedule entry, counters, or
// live events): speculative executors — the Time Warp wfsched model —
// query it on possibly-rolled-back paths and report only committed
// failures via NoteHostFailure, so the fired-fault schedule stays
// identical to a sequential run's.
func (in *Injector) HostFailureDecision(site string, task, attempt int) (frac float64, fails bool) {
	if in == nil || in.plan.HostFail <= 0 {
		return 0, false
	}
	key := fmt.Sprintf("hostfail:%s:%d:%d", site, task, attempt)
	if in.u01(key) >= in.plan.HostFail {
		return 0, false
	}
	// Fail somewhere in the middle 80% of the attempt, deterministically.
	frac = 0.1 + 0.8*in.u01(key+":frac")
	return frac, true
}

// NoteHostFailure records a committed host failure decided earlier by
// HostFailureDecision: its schedule entry, counters and live event.
func (in *Injector) NoteHostFailure(site string, task, attempt int, frac float64) {
	if in == nil {
		return
	}
	in.note(in.cHostFail, fmt.Sprintf("hostfail site=%s task=%d attempt=%d frac=%.3f", site, task, attempt, frac))
}

// RepairSec is the downtime of a failed host slot.
func (in *Injector) RepairSec() float64 {
	if in == nil {
		return 0
	}
	return in.plan.RepairSec
}

// DeviceStall reports whether the simulated accelerator stalls at the
// given iteration (one-shot).
func (in *Injector) DeviceStall(iter int) bool {
	if in == nil || in.plan.StallIter <= 0 || iter < in.plan.StallIter {
		return false
	}
	if !in.fireOnce("stall") {
		return false
	}
	in.note(in.cStalls, fmt.Sprintf("device stall iter=%d", iter))
	return true
}

// TaskFails decides whether the attempt-th execution of a map/reduce
// task fails; key identifies the task (phase plus indices).
func (in *Injector) TaskFails(phase string, attempt int, key ...int) bool {
	if in == nil || in.plan.TaskFail <= 0 {
		return false
	}
	parts := make([]int, 0, len(key)+1)
	parts = append(parts, attempt)
	parts = append(parts, key...)
	if in.u01("taskfail:"+phase, parts...) >= in.plan.TaskFail {
		return false
	}
	in.note(in.cTaskFail, fmt.Sprintf("taskfail phase=%s key=%v attempt=%d", phase, key, attempt))
	return true
}

// NoteRetransmit records a receiver-side retransmit recovery (the
// visible effect of a dropped message).
func (in *Injector) NoteRetransmit(from, to int, seq uint64) {
	if in == nil {
		return
	}
	in.note(in.cRetransmit, fmt.Sprintf("msg retransmit %d->%d seq=%d", from, to, seq))
}

// NoteTaskRetry records one task re-execution (host-failure recovery).
func (in *Injector) NoteTaskRetry(site string, task, attempt int) {
	if in == nil {
		return
	}
	in.note(in.cTaskRetry, fmt.Sprintf("retry site=%s task=%d attempt=%d", site, task, attempt))
}

// NoteRecovery records one coordinated recovery (checkpoint rollback
// and restart) and emits a recovery span covering it.
func (in *Injector) NoteRecovery(substrate string, start, dur time.Duration, args ...obs.Arg) {
	if in == nil {
		return
	}
	in.note(in.cRecovery, fmt.Sprintf("recovery substrate=%s", substrate))
	if in.tr != nil {
		in.tr.Span(in.track, "recovery "+substrate, start, dur, args...)
	}
	in.lg.Event(obs.LevelInfo, "fault", "recovered "+substrate, args...)
}

// Now returns the injector's trace clock offset (0 without a tracer),
// for timestamping recovery spans.
func (in *Injector) Now() time.Duration {
	if in == nil {
		return 0
	}
	return in.tr.Now()
}

// Schedule returns the fired-fault log, sorted so that concurrent
// substrates cannot perturb its order: same seed, same byte-identical
// schedule.
func (in *Injector) Schedule() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	out := append([]string(nil), in.log...)
	in.mu.Unlock()
	sort.Strings(out)
	return out
}

// h hashes the seed with a decision identity into a uniform uint64
// (FNV-1a fed into a splitmix64 finalizer). Deterministic across runs
// and platforms; independent of goroutine interleaving.
func (in *Injector) h(key string, parts ...int) uint64 {
	f := fnv.New64a()
	io.WriteString(f, key)
	for _, p := range parts {
		fmt.Fprintf(f, ":%d", p)
	}
	x := f.Sum64() ^ uint64(in.plan.Seed)*0x9E3779B97F4A7C15
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// u01 maps a decision identity to a uniform float in [0, 1).
func (in *Injector) u01(key string, parts ...int) float64 {
	return float64(in.h(key, parts...)>>11) / float64(1<<53)
}
