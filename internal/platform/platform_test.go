package platform_test

// The site and link behaviours below are the hardware model the
// workflow simulator runs on. The model itself lives in wfsched's
// logical processes, so these tests drive wfsched.Simulate on tiny
// hand-built workflows and read task timings back from its per-slot
// trace spans.

import (
	"math"
	"sort"
	"testing"

	"repro/internal/carbon"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/wfsched"
	"repro/internal/workflow"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestDefaultPStatesShape(t *testing.T) {
	ps := platform.DefaultPStates()
	if len(ps) != 7 {
		t.Fatalf("p-states = %d, want 7 (the paper's seven power states)", len(ps))
	}
	for i := 1; i < len(ps); i++ {
		if ps[i].Freq <= ps[i-1].Freq || ps[i].Speed <= ps[i-1].Speed || ps[i].BusyPower <= ps[i-1].BusyPower {
			t.Fatalf("p-states not monotone at %d: %v then %v", i, ps[i-1], ps[i])
		}
		if ps[i].IdlePower != ps[i-1].IdlePower {
			t.Fatalf("idle power should be state-independent")
		}
	}
	top := ps[6]
	if !almost(top.Speed, 10, 0.01) {
		t.Fatalf("top speed = %v, want ~10 Gflop/s", top.Speed)
	}
	if !almost(top.BusyPower, 200, 0.5) {
		t.Fatalf("top busy power = %v, want ~200 W", top.BusyPower)
	}
}

func TestPStateEnergyPerWorkImprovesWhenDownclockingFromTop(t *testing.T) {
	// The cubic dynamic term means energy-per-Gflop at the top state
	// exceeds some lower state — otherwise the downclocking option in
	// the assignment would never help.
	ps := platform.DefaultPStates()
	eTop := ps[6].BusyPower / ps[6].Speed
	eMid := ps[3].BusyPower / ps[3].Speed
	if eMid >= eTop {
		t.Fatalf("downclocking never pays: e(top)=%v e(mid)=%v", eTop, eMid)
	}
}

// dag builds a tiny workflow by hand.
type dag struct {
	w     workflow.Workflow
	cloud map[*workflow.Task]bool
}

func newDAG() *dag { return &dag{cloud: map[*workflow.Task]bool{}} }

// input adds a workflow input file (staged on local storage).
func (d *dag) input(bytes float64) *workflow.File {
	f := &workflow.File{Name: "in", Bytes: bytes}
	d.w.Files = append(d.w.Files, f)
	return f
}

// task adds a task reading the given files; their producers become
// its parents.
func (d *dag) task(gflop float64, onCloud bool, in ...*workflow.File) *workflow.Task {
	t := &workflow.Task{ID: "t", Gflop: gflop, Inputs: in}
	for _, f := range in {
		if p := f.Producer; p != nil {
			t.Parents = append(t.Parents, p)
			p.Children = append(p.Children, t)
		}
	}
	d.w.Tasks = append(d.w.Tasks, t)
	d.cloud[t] = onCloud
	return t
}

// output adds a file t writes.
func (d *dag) output(t *workflow.Task, bytes float64) *workflow.File {
	f := &workflow.File{Name: "out", Bytes: bytes, Producer: t}
	t.Outputs = append(t.Outputs, f)
	d.w.Files = append(d.w.Files, f)
	return f
}

func (d *dag) place(t *workflow.Task) wfsched.SiteID {
	if d.cloud[t] {
		return wfsched.Cloud
	}
	return wfsched.Local
}

// node is a 10 Gflop/s node drawing 200 W busy and 80 W idle.
var node = platform.PState{Speed: 10, BusyPower: 200, IdlePower: 80}

// cluster is a local-only scenario with the given slot count.
func cluster(d *dag, slots int) wfsched.Scenario {
	return wfsched.Scenario{Workflow: &d.w, LocalNodes: slots, PState: node}
}

// withCloud adds a 16-VM cloud (10 Gflop/s each) behind a link.
func withCloud(d *dag, bandwidth, latency float64) wfsched.Scenario {
	sc := cluster(d, 1)
	sc.CloudVMs, sc.VMSpeed, sc.VMBusyPower, sc.VMIdlePower = 16, 10, 100, 10
	sc.LinkBandwidth, sc.LinkLatency = bandwidth, latency
	return sc
}

// span is one executed task: start and end in seconds, and its size.
type span struct {
	start, end float64
	gflop      int64
}

// run simulates sc and returns the outcome and its "task" spans,
// sorted by start then size.
func run(t *testing.T, sc wfsched.Scenario, d *dag) (wfsched.Outcome, []span) {
	t.Helper()
	tr := obs.NewTracer(nil)
	sc.Obs = obs.Sink{Tracer: tr, Metrics: obs.NewRegistry()}
	out := wfsched.Simulate(sc, d.place)
	var spans []span
	for _, sp := range tr.Spans() {
		if sp.Name != "task" {
			continue
		}
		spans = append(spans, span{
			start: sp.Start.Seconds(), end: (sp.Start + sp.Dur).Seconds(), gflop: sp.Args[0].Value,
		})
	}
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].start != spans[j].start {
			return spans[i].start < spans[j].start
		}
		return spans[i].gflop < spans[j].gflop
	})
	if got := sc.Obs.Metrics.Counter("platform.tasks").Value(); got != int64(len(d.w.Tasks)) {
		t.Fatalf("platform.tasks = %d, want %d", got, len(d.w.Tasks))
	}
	return out, spans
}

// spanTol absorbs the trace's nanosecond timestamps.
const spanTol = 1e-6

func expectPanic(t *testing.T, what string, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	f()
}

func TestSiteSingleTaskTiming(t *testing.T) {
	d := newDAG()
	d.task(100, false) // 100 Gflop / 10 Gf/s = 10 s
	out, spans := run(t, cluster(d, 1), d)
	if !almost(out.Makespan, 10, 1e-9) {
		t.Fatalf("makespan = %v, want 10", out.Makespan)
	}
	if len(spans) != 1 || !almost(spans[0].start, 0, spanTol) || !almost(spans[0].end, 10, spanTol) {
		t.Fatalf("spans = %+v, want one over [0, 10]", spans)
	}
}

func TestSiteQueueingWhenSlotsBusy(t *testing.T) {
	// Four independent tasks on two slots: the last two wait in FIFO
	// order for the first two slots to free up.
	d := newDAG()
	for g := 100.0; g < 104; g++ {
		d.task(g, false)
	}
	out, spans := run(t, cluster(d, 2), d)
	want := []span{{0, 10, 100}, {0, 10.1, 101}, {10, 20.2, 102}, {10.1, 20.4, 103}}
	if len(spans) != len(want) {
		t.Fatalf("spans = %+v, want %+v", spans, want)
	}
	for i, w := range want {
		s := spans[i]
		if s.gflop != w.gflop || !almost(s.start, w.start, spanTol) || !almost(s.end, w.end, spanTol) {
			t.Fatalf("spans = %+v, want %+v", spans, want)
		}
	}
	if !almost(out.Makespan, 20.4, 1e-9) {
		t.Fatalf("makespan = %v, want 20.4", out.Makespan)
	}
}

// failOnce returns a fault plan whose first attempt at task ordinal 0
// on the local site fails and whose second succeeds, plus the failure
// fraction.
func failOnce(t *testing.T, repair float64) (*fault.Plan, float64) {
	t.Helper()
	for seed := int64(1); seed < 1000; seed++ {
		plan := &fault.Plan{Seed: seed, HostFail: 0.5, RepairSec: repair}
		inj := fault.NewInjector(plan, obs.Sink{})
		frac, fails := inj.HostFailureDecision("local", 0, 1)
		if _, again := inj.HostFailureDecision("local", 0, 2); fails && !again {
			return plan, frac
		}
	}
	t.Fatal("no seed fails the first attempt only")
	return nil, 0
}

func TestSiteEnergyAccounting(t *testing.T) {
	// Two slots, one 10 s task: busy-above-idle (200-80)·10 = 1200 J
	// plus idle 80 W · 2 slots · 10 s = 1600 J.
	d := newDAG()
	d.task(100, false)
	out, _ := run(t, cluster(d, 2), d)
	if got := out.EnergyLocalKWh * 3.6e6; !almost(got, 2800, 1e-6) {
		t.Fatalf("energy = %v J, want 2800", got)
	}
	if want := carbon.Emissions(2800, carbon.LocalGrid); !almost(out.CO2Local, want, 1e-9) {
		t.Fatalf("CO2 = %v g, want %v", out.CO2Local, want)
	}

	// One slot whose first attempt dies at k: the slot is down for the
	// 4 s repair, the retry (backoff 1 s) waits for it and runs 10 s.
	// The repair window draws nothing; the killed attempt's draw is
	// both real and wasted.
	sc := cluster(d, 1)
	plan, frac := failOnce(t, 4)
	sc.Faults = plan
	out, spans := run(t, sc, d)
	k := frac * 10
	if !almost(out.Makespan, k+14, 1e-9) || len(spans) != 1 || !almost(spans[0].start, k+4, spanTol) {
		t.Fatalf("makespan %v, spans %+v; want the retry over [%v, %v]", out.Makespan, spans, k+4, k+14)
	}
	want := 120*k + 1200 + 80*(out.Makespan-4)
	if got := out.EnergyLocalKWh * 3.6e6; !almost(got, want, 1e-6) {
		t.Fatalf("energy = %v J, want %v", got, want)
	}
	if got := out.EnergyWastedKWh * 3.6e6; !almost(got, 200*k, 1e-6) || out.Retries != 1 {
		t.Fatalf("wasted %v J over %d retries, want %v over 1", got, out.Retries, 200*k)
	}
}

func TestSiteFinalizeGuards(t *testing.T) {
	// A repair that outlasts the last task completion neither extends
	// the makespan nor subtracts more than the makespan's share of
	// idle draw: slot 0 fails at k and stays down for 1000 s while the
	// retry runs on slot 1 from k+1.
	d := newDAG()
	d.task(100, false)
	sc := cluster(d, 2)
	plan, frac := failOnce(t, 1000)
	sc.Faults = plan
	out, _ := run(t, sc, d)
	k := frac * 10
	if !almost(out.Makespan, k+11, 1e-9) {
		t.Fatalf("makespan = %v, want %v (trailing repair excluded)", out.Makespan, k+11)
	}
	down := out.Makespan - k // the repair clamped to the makespan
	want := 120*k + 1200 + 80*(2*out.Makespan-down)
	if got := out.EnergyLocalKWh * 3.6e6; !almost(got, want, 1e-6) {
		t.Fatalf("energy = %v J, want %v", got, want)
	}
}

func TestSubmitToPoweredOffSitePanics(t *testing.T) {
	d := newDAG()
	d.task(1, false)
	sc := withCloud(d, 100, 0)
	sc.LocalNodes = 0
	expectPanic(t, "a task on a powered-off cluster", func() { wfsched.Simulate(sc, d.place) })
}

func TestSiteRejectsInvalidConstruction(t *testing.T) {
	d := newDAG()
	d.task(1, true)
	for name, sc := range map[string]wfsched.Scenario{
		"zero speed":     {Workflow: &d.w, LocalNodes: 1},
		"negative slots": func() wfsched.Scenario { sc := withCloud(d, 100, 0); sc.LocalNodes = -1; return sc }(),
		"zero VM speed":  func() wfsched.Scenario { sc := withCloud(d, 100, 0); sc.VMSpeed = 0; return sc }(),
	} {
		expectPanic(t, name, func() { wfsched.Simulate(sc, d.place) })
	}
}

func TestLinkSingleTransfer(t *testing.T) {
	d := newDAG()
	d.task(0, true, d.input(200))
	out, spans := run(t, withCloud(d, 100, 0.5), d) // 100 B/s, 0.5 s latency
	if len(spans) != 1 || !almost(spans[0].start, 2.5, spanTol) {
		t.Fatalf("spans = %+v, want the task to start at 2.5 (0.5 latency + 2 s)", spans)
	}
	if out.Transfers != 1 || !almost(out.BytesTransferred, 200, 1e-9) {
		t.Fatalf("accounting: %d transfers, %v bytes", out.Transfers, out.BytesTransferred)
	}
}

func TestLinkFairSharingTwoFlows(t *testing.T) {
	// Both share 50 B/s: both land at 2 s (vs 1 s alone).
	d := newDAG()
	d.task(0, true, d.input(100))
	d.task(0, true, d.input(100))
	_, spans := run(t, withCloud(d, 100, 0), d)
	if len(spans) != 2 || !almost(spans[0].start, 2, spanTol) || !almost(spans[1].start, 2, spanTol) {
		t.Fatalf("spans = %+v, want both tasks to start at 2", spans)
	}
}

func TestLinkFairSharingStaggeredFlows(t *testing.T) {
	// A's 150 B flow runs alone for 1 s (100 B done, 50 left), until a
	// 1 s local task produces B's 50 B file. Then both flows move at
	// 50 B/s with 50 B left: both land at t=2.
	d := newDAG()
	d.task(10, true, d.input(150))
	producer := d.task(10, false)
	d.task(20, true, d.output(producer, 50))
	_, spans := run(t, withCloud(d, 100, 0), d)
	var cloud []span
	for _, s := range spans {
		if !almost(s.start, 0, spanTol) {
			cloud = append(cloud, s)
		}
	}
	if len(cloud) != 2 || !almost(cloud[0].start, 2, spanTol) || !almost(cloud[1].start, 2, spanTol) {
		t.Fatalf("spans = %+v, want both cloud tasks to start at 2", spans)
	}
}

func TestLinkConservesBytes(t *testing.T) {
	// Twenty flows joining 0.1 s apart as local producers finish.
	d := newDAG()
	total := 0.0
	for i := 1; i <= 20; i++ {
		b := float64(i * 37)
		total += b
		producer := d.task(float64(i), false) // i·0.1 s on a 10 Gf/s node
		d.task(0, true, d.output(producer, b))
	}
	sc := withCloud(d, 1000, 0.01)
	sc.LocalNodes = 20
	out, _ := run(t, sc, d)
	if out.Transfers != 20 || !almost(out.BytesTransferred, total, 1e-6) {
		t.Fatalf("moved %v bytes in %d transfers, want %v in 20", out.BytesTransferred, out.Transfers, total)
	}
}

func TestLinkZeroByteTransferPaysLatency(t *testing.T) {
	d := newDAG()
	d.task(0, true, d.input(0))
	out, spans := run(t, withCloud(d, 100, 0.25), d)
	if len(spans) != 1 || !almost(spans[0].start, 0.25, spanTol) || out.Transfers != 1 {
		t.Fatalf("spans = %+v after %d transfers, want one start at 0.25", spans, out.Transfers)
	}
}

func TestLinkInvalidConstruction(t *testing.T) {
	for _, c := range []struct{ bw, lat float64 }{{0, 0}, {-1, 0}, {1, -1}} {
		d := newDAG()
		d.task(1, true, d.input(1))
		expectPanic(t, "an invalid link", func() { wfsched.Simulate(withCloud(d, c.bw, c.lat), d.place) })
	}
}

func TestLinkNegativeTransferPanics(t *testing.T) {
	d := newDAG()
	d.task(1, true, d.input(-5))
	expectPanic(t, "a negative file size", func() { wfsched.Simulate(withCloud(d, 100, 0), d.place) })
}

func TestLinkManyConcurrentFlowsSlowdown(t *testing.T) {
	// n simultaneous equal flows must each take n times as long.
	for _, n := range []int{1, 4, 10} {
		d := newDAG()
		for i := 0; i < n; i++ {
			d.task(0, true, d.input(100))
		}
		_, spans := run(t, withCloud(d, 100, 0), d)
		for i, s := range spans {
			if !almost(s.start, float64(n), spanTol) {
				t.Fatalf("n=%d flow %d landed at %v, want %d", n, i, s.start, n)
			}
		}
		if len(spans) != n {
			t.Fatalf("n=%d: %d tasks ran", n, len(spans))
		}
	}
}
