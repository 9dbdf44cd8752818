// warp.go is the workflow simulator's model: the execution semantics
// Simulate documents, expressed as logical processes on the des.Warp
// kernel. Every Simulate, SimulateContext and SimulateSplitCluster
// call runs it. Scenario.DESWorkers only picks how the kernel
// executes it — its sequential heap at workers <= 1, optimistic Time
// Warp above — and outcomes are byte-identical either way.
//
// # LP partition
//
// One LP per simulated site plus one controller:
//
//	ctl   — the scheduler: DAG readiness, file presence, in-flight
//	        transfer dedup, and the fluid link model (the link lives
//	        inside ctl so flow arithmetic is single-owner).
//	local — the cluster's slots, queue, energy, fault machinery.
//	cloud — ditto for the VMs (only when the scenario has a cloud).
//
// Cross-LP edges are exactly the model's natural messages: ctl
// submits a task to a site (zero-delay), a site reports a completion
// back (zero-delay), and each site talks only to itself for compute
// completions, kills, repairs, and retry backoffs.
//
// # Sites
//
// A site is a pool of slots running one task each, with a FIFO queue
// when every slot is busy. Its slots come in groups of identical
// slots: the Tab 1/Tab 2 cluster and the cloud have one group, E23's
// split cluster two. A task starts on the fastest group with a free
// slot. Energy is "busy power while computing, idle power otherwise":
// each completion or kill charges the busy-above-idle draw, and after
// the run every slot is charged its idle draw over the makespan minus
// its repair downtime (a slot under repair is powered off). Joules
// are kept per group, so a site's energy and emissions are sums over
// its groups.
//
// A freed slot normally goes to the queue head at once. A ready-first
// site (the split cluster's list scheduler) instead hands it to the
// finished task's newly ready children first: its completion does
// not free the slot, and ctl brackets the children's submits with a
// kRelease of the slot and a kDrain of the queue.
//
// # Determinism
//
// Every float accumulator has a single owner (a site owns its joules,
// wasted energy, and downtime; ctl owns transferred bytes and the
// flow remainders), so each accumulation sequence happens in its
// owner's committed event order: ascending canonical key. The Outcome
// is assembled after the run from the committed states. Host-failure
// decisions use the injector's pure half (HostFailureDecision) during
// the run; fault notes, trace spans and attempts exhaustion are
// recorded in committed state tagged with their event's key, and
// replayed after the run merged across sites in key order — the order
// a sequential run executes them in.
package wfsched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"

	"repro/internal/carbon"
	"repro/internal/des"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/workflow"
)

// ErrAttemptsExhausted reports that a task's hosts kept failing until
// the fault plan's attempts cap (fault.RetryPolicy.MaxAttempts) ran
// out, so the workflow cannot complete.
var ErrAttemptsExhausted = errors.New("wfsched: task attempts exhausted")

// Message kinds of the simulator's LP protocol.
const (
	kReady    = iota // ctl: a root task becomes ready (seed)
	kFinished        // ctl: site B reports task A finished on slot C
	kJoin            // ctl: transfer of file A to site B joins the link
	kWake            // ctl: link wake for settle epoch A
	kSubmit          // site: ctl submits task A
	kDone            // site: the attempt on slot A completes
	kKill            // site: host failure kills the attempt on slot A at fraction F
	kRepair          // site: failed slot A comes back
	kRetry           // site: task A (ord B, attempt C) re-enters the queue
	kRelease         // ready-first site: slot A is free again
	kDrain           // ready-first site: start queued tasks on free slots
)

// twFlow is one in-flight file transfer on the link.
type twFlow struct {
	key       int32 // fileIdx*2 + destination site: the transfer key
	remaining float64
}

// ctlState is the controller LP's rollback-able state. Its handlers
// save every slot they write (see undo.go); Undo puts it back.
type ctlState struct {
	pending  []int32 // per task: unfinished parent count
	missing  []int32 // per task: inputs still staging
	finished []byte  // per task: 1 once its kFinished is processed
	done     int32
	lastDone float64

	present [2][]byte // [site][fileIdx]: 1 if staged there

	// Tasks awaiting each in-flight transfer, in submission order:
	// key k's are waiters[waitAt[k]:][:nwait[k]] (waitAt is in
	// warpModel). A transfer is in flight while it has waiters.
	waiters []int32
	nwait   []int32 // per transfer key

	// The fluid link: concurrent transfers share the bandwidth
	// equally, recomputed whenever a flow starts or finishes.
	flows     []twFlow
	lastTouch float64
	wakeEpoch int32

	bytes     float64
	transfers int32
}

// ctlState's undo slot kinds, with what a slot's index names.
const (
	csPending  = iota // task
	csMissing         // task
	csFinished        // task
	csDone
	csLastDone
	csPresent // transfer key
	csWaiter  // position in waiters
	csWaitLen // transfer key
	csFlowKey // flow
	csFlowRem // flow
	csFlowLen
	csLastTouch
	csWakeEpoch
	csBytes
	csTransfers
)

func (s *ctlState) Undo(slot int32, old uint64) {
	kind, i := splitSlot(slot)
	switch kind {
	case csPending:
		s.pending[i] = int32(old)
	case csMissing:
		s.missing[i] = int32(old)
	case csFinished:
		s.finished[i] = byte(old)
	case csDone:
		s.done = int32(old)
	case csLastDone:
		s.lastDone = math.Float64frombits(old)
	case csPresent:
		s.present[i%2][i/2] = byte(old)
	case csWaiter:
		s.waiters[i] = int32(old)
	case csWaitLen:
		s.nwait[i] = int32(old)
	case csFlowKey:
		s.flows[:cap(s.flows)][i].key = int32(old)
	case csFlowRem:
		s.flows[:cap(s.flows)][i].remaining = math.Float64frombits(old)
	case csFlowLen:
		s.flows = s.flows[:old]
	case csLastTouch:
		s.lastTouch = math.Float64frombits(old)
	case csWakeEpoch:
		s.wakeEpoch = int32(old)
	case csBytes:
		s.bytes = math.Float64frombits(old)
	case csTransfers:
		s.transfers = int32(old)
	}
}

// setFlow overwrites flows[i], which may lie past the length but not
// past the capacity, saving the flow it replaces.
func (s *ctlState) setFlow(p *des.Proc, i int, f twFlow) {
	all := s.flows[:cap(s.flows)]
	saveI32(p, csFlowKey, i, all[i].key)
	saveF64(p, csFlowRem, i, all[i].remaining)
	all[i] = f
}

// appendFlow adds f to the link. flows is compacted in place, so the
// position f takes may hold a flow an earlier state still needs.
func (s *ctlState) appendFlow(p *des.Proc, f twFlow) {
	n := len(s.flows)
	saveLen(p, csFlowLen, n)
	if n == cap(s.flows) {
		s.flows = append(s.flows, f)
		return
	}
	s.setFlow(p, n, f)
	s.flows = s.flows[:n+1]
}

// setPresent marks file staged at site.
func (s *ctlState) setPresent(p *des.Proc, site SiteID, file int32) {
	if s.present[site][file] == 0 {
		p.Save(undoSlot(csPresent, int(file)*2+int(site)), 0)
		s.present[site][file] = 1
	}
}

// twQueued is a task waiting for (or, in siteState.running, holding)
// a slot. attempt counts attempts made so far; a running entry's
// attempt is the one in progress.
type twQueued struct {
	task, ord, attempt int32
}

// twDown is one slot-repair window.
type twDown struct {
	slot       int32
	start, dur float64
}

// Record kinds: what a site reports after the run.
const (
	recHostFail  = iota // fault note: attempt of task ord failed at fraction val
	recRetry            // fault note: task ord re-queued after attempt
	recExhausted        // task ord used up its attempts
	recTask             // trace span: task on slot, lasting val seconds
	recKilled           // trace span: killed attempt on slot, lasting val
	recRepair           // trace span: slot under repair for val seconds
)

// twRecord is one committed report, tagged with the key of the event
// that made it. Spans start at key.At.
type twRecord struct {
	key                      des.Key
	kind                     uint8
	slot, task, ord, attempt int32
	val                      float64
}

// siteState is a site LP's rollback-able state. Its handlers save
// every slot they write (see undo.go); Undo puts it back. The queue,
// downtime and log only grow by append, so saving their lengths (and
// the queue head) is enough; the free stacks are popped and pushed,
// so a push saves the element it overwrites.
type siteState struct {
	free     [][]int32  // per group: free slot ids, popped from the end
	running  []twQueued // per slot: the attempt occupying it
	queue    []twQueued // queue[head:] wait for a slot, FIFO
	head     int32
	nextOrd  int32 // task ordinals key the injector's failure decisions
	retries  int32
	tasksRun int32
	wastedJ  float64   // drawn by killed attempts (also in joules)
	joules   []float64 // per group
	downtime []twDown
	log      []twRecord
}

// siteState's undo slot kinds, with what a slot's index names.
const (
	ssFree       = iota // position*groups + group in the free stacks
	ssFreeLen           // group
	ssRunning           // slot: task<<32 | ord
	ssRunAttempt        // slot
	ssQueueLen
	ssHead
	ssNextOrd
	ssRetries
	ssTasksRun
	ssWastedJ
	ssJoules // group
	ssDowntimeLen
	ssLogLen
)

func (s *siteState) Undo(slot int32, old uint64) {
	kind, i := splitSlot(slot)
	switch kind {
	case ssFree:
		g := i % len(s.free)
		s.free[g][:cap(s.free[g])][i/len(s.free)] = int32(old)
	case ssFreeLen:
		s.free[i] = s.free[i][:old]
	case ssRunning:
		s.running[i].task, s.running[i].ord = int32(old>>32), int32(old)
	case ssRunAttempt:
		s.running[i].attempt = int32(old)
	case ssQueueLen:
		s.queue = s.queue[:old]
	case ssHead:
		s.head = int32(old)
	case ssNextOrd:
		s.nextOrd = int32(old)
	case ssRetries:
		s.retries = int32(old)
	case ssTasksRun:
		s.tasksRun = int32(old)
	case ssWastedJ:
		s.wastedJ = math.Float64frombits(old)
	case ssJoules:
		s.joules[i] = math.Float64frombits(old)
	case ssDowntimeLen:
		s.downtime = s.downtime[:old]
	case ssLogLen:
		s.log = s.log[:old]
	}
}

// pushFree returns slot to group g's free stack.
func (s *siteState) pushFree(p *des.Proc, g int, slot int32) {
	f := s.free[g]
	n := len(f)
	saveI32(p, ssFreeLen, g, int32(n))
	if n < cap(f) {
		saveI32(p, ssFree, n*len(s.free)+g, f[:n+1][n])
	}
	s.free[g] = append(f, slot)
}

// popFree takes the top of group g's free stack.
func (s *siteState) popFree(p *des.Proc, g int) int32 {
	f := s.free[g]
	n := len(f)
	saveI32(p, ssFreeLen, g, int32(n))
	s.free[g] = f[:n-1]
	return f[n-1]
}

// setRunning records q as the attempt occupying slot.
func (s *siteState) setRunning(p *des.Proc, slot int32, q twQueued) {
	r := s.running[slot]
	p.Save(undoSlot(ssRunning, int(slot)), uint64(uint32(r.task))<<32|uint64(uint32(r.ord)))
	saveI32(p, ssRunAttempt, int(slot), r.attempt)
	s.running[slot] = q
}

func (s *siteState) push(p *des.Proc, q twQueued) {
	saveLen(p, ssQueueLen, len(s.queue))
	s.queue = append(s.queue, q)
}

func (s *siteState) queued() bool { return int(s.head) < len(s.queue) }

func (s *siteState) pop(p *des.Proc) twQueued {
	saveI32(p, ssHead, 0, s.head)
	s.head++
	return s.queue[s.head-1]
}

// record appends a committed report to the log.
func (s *siteState) record(p *des.Proc, r twRecord) {
	r.key = p.Key()
	saveLen(p, ssLogLen, len(s.log))
	s.log = append(s.log, r)
}

// slotGroup is a run of identical slots within a site.
type slotGroup struct {
	slots      int
	speed      float64 // Gflop/s per slot
	busy, idle float64 // W per computing / powered-on slot
}

// siteModel is a site's static description.
type siteModel struct {
	name       string // fault-decision key and trace track prefix
	intensity  carbon.Intensity
	groups     []slotGroup
	groupOf    []int32 // per slot
	readyFirst bool    // see the file comment
	lp         des.LPID
	tracks     []obs.TrackID // per slot, when tracing
}

// newSiteModel numbers the groups' slots consecutively. Negative slot
// counts and non-positive speeds panic.
func newSiteModel(name string, intensity carbon.Intensity, groups ...slotGroup) *siteModel {
	s := &siteModel{name: name, intensity: intensity, groups: groups}
	for g, gr := range groups {
		if gr.slots < 0 || gr.speed <= 0 {
			panic(fmt.Sprintf("wfsched: invalid site %q: slots=%d speed=%v", name, gr.slots, gr.speed))
		}
		for i := 0; i < gr.slots; i++ {
			s.groupOf = append(s.groupOf, int32(g))
		}
	}
	return s
}

// newState returns the site's initial state: every slot free, each
// group handing out its lowest slot id first.
func (s *siteModel) newState() *siteState {
	st := &siteState{
		free:    make([][]int32, len(s.groups)),
		running: make([]twQueued, len(s.groupOf)),
		joules:  make([]float64, len(s.groups)),
	}
	for slot := len(s.groupOf) - 1; slot >= 0; slot-- {
		g := s.groupOf[slot]
		st.free[g] = append(st.free[g], int32(slot))
	}
	return st
}

// freeGroup returns the fastest group with a free slot (the first on
// ties), or -1 when every slot is busy.
func (s *siteModel) freeGroup(st *siteState) int {
	best := -1
	for g := range s.groups {
		if len(st.free[g]) > 0 && (best < 0 || s.groups[g].speed > s.groups[best].speed) {
			best = g
		}
	}
	return best
}

// finalize charges each group's idle draw over the makespan, minus
// repair downtime clamped to the makespan, and returns the site's
// energy and emissions summed over its groups.
func (s *siteModel) finalize(st *siteState, makespan float64) (kwh, co2 float64) {
	for g, gr := range s.groups {
		idleSec := float64(gr.slots) * makespan
		for _, d := range st.downtime {
			if s.groupOf[d.slot] != int32(g) {
				continue
			}
			if end := min(d.start+d.dur, makespan); end > d.start {
				idleSec -= end - d.start
			}
		}
		if idleSec < 0 {
			idleSec = 0
		}
		j := st.joules[g] + gr.idle*idleSec
		kwh += carbon.JoulesToKWh(j)
		co2 += carbon.Emissions(j, s.intensity)
	}
	return kwh, co2
}

// warpModel is the immutable context every handler closes over:
// static DAG/platform tables plus the injector (queried only through
// its pure methods during the run).
type warpModel struct {
	sc    Scenario
	tasks []*workflow.Task
	sites [2]*siteModel // per SiteID; nil when absent

	gflop     []float64 // per task
	inputs    [][]int32 // per task: file indices
	outputs   [][]int32
	children  [][]int32
	placement []SiteID
	fileBytes []float64

	// waitAt[k] is where transfer key k's waiters start in
	// ctlState.waiters: each task input can wait on its key once.
	waitAt []int32

	ctl des.LPID
	inj *fault.Injector
	tr  *obs.Tracer
}

// simulate runs the workflow on the given sites.
func simulate(ctx context.Context, sc Scenario, place Placement, sites [2]*siteModel) (Outcome, error) {
	w := sc.Workflow
	m := &warpModel{sc: sc, tasks: w.Tasks, sites: sites, tr: sc.Obs.Tracer}
	m.inj = fault.NewInjector(sc.Faults, sc.Obs)

	// Index the DAG into flat tables the handlers can share.
	taskIdx := make(map[*workflow.Task]int32, len(w.Tasks))
	for i, t := range w.Tasks {
		taskIdx[t] = int32(i)
	}
	fileIdx := make(map[*workflow.File]int32, len(w.Files))
	for i, f := range w.Files {
		fileIdx[f] = int32(i)
	}
	m.gflop = make([]float64, len(w.Tasks))
	m.inputs = make([][]int32, len(w.Tasks))
	m.outputs = make([][]int32, len(w.Tasks))
	m.children = make([][]int32, len(w.Tasks))
	m.placement = make([]SiteID, len(w.Tasks))
	// The per-task index lists share one backing array.
	n := 0
	for _, t := range w.Tasks {
		n += len(t.Inputs) + len(t.Outputs) + len(t.Children)
	}
	idx := make([]int32, 0, n)
	list := func(lo int) []int32 { return idx[lo:len(idx):len(idx)] }
	var out Outcome
	for i, t := range w.Tasks {
		m.gflop[i] = t.Gflop
		lo := len(idx)
		for _, f := range t.Inputs {
			idx = append(idx, fileIdx[f])
		}
		m.inputs[i] = list(lo)
		lo = len(idx)
		for _, f := range t.Outputs {
			idx = append(idx, fileIdx[f])
		}
		m.outputs[i] = list(lo)
		lo = len(idx)
		for _, c := range t.Children {
			idx = append(idx, taskIdx[c])
		}
		m.children[i] = list(lo)
		m.placement[i] = place(t)
		if m.placement[i] == Cloud {
			out.TasksCloud++
		} else {
			out.TasksLocal++
		}
	}
	m.waitAt = make([]int32, 2*len(w.Files)+1)
	for i := range w.Tasks {
		for _, f := range m.inputs[i] {
			m.waitAt[f*2+int32(m.placement[i])+1]++
		}
	}
	for k := 1; k < len(m.waitAt); k++ {
		m.waitAt[k] += m.waitAt[k-1]
	}
	m.fileBytes = make([]float64, len(w.Files))
	for i, f := range w.Files {
		if f.Bytes < 0 || math.IsNaN(f.Bytes) {
			panic(fmt.Sprintf("wfsched: file %s has invalid size %v", f.Name, f.Bytes))
		}
		m.fileBytes[i] = f.Bytes
	}
	if m.tr != nil {
		for _, site := range sites {
			if site == nil {
				continue
			}
			site.tracks = make([]obs.TrackID, len(site.groupOf))
			for i := range site.tracks {
				site.tracks[i] = m.tr.Track("site:"+site.name, i, fmt.Sprintf("slot %d", i))
			}
		}
	}

	// Build the LPs.
	eng := des.NewWarp(des.WarpConfig{Workers: sc.DESWorkers, Obs: sc.Obs})
	cst := &ctlState{
		pending:  make([]int32, len(w.Tasks)),
		missing:  make([]int32, len(w.Tasks)),
		finished: make([]byte, len(w.Tasks)),
		waiters:  make([]int32, m.waitAt[len(m.waitAt)-1]),
		nwait:    make([]int32, 2*len(w.Files)),
	}
	cst.present[Local] = make([]byte, len(w.Files))
	cst.present[Cloud] = make([]byte, len(w.Files))
	for i, f := range w.Files {
		if f.Producer == nil {
			cst.present[Local][i] = 1 // inputs staged on local storage
		}
	}
	for i, t := range w.Tasks {
		cst.pending[i] = int32(len(t.Parents))
	}
	m.ctl = eng.AddLP("ctl", cst, m.ctlHandler)
	for s, site := range sites {
		if site != nil {
			site.lp = eng.AddLP(site.name, site.newState(), m.siteHandler(site, SiteID(s)))
		}
	}

	// Seed the roots in task order.
	for i := range w.Tasks {
		if cst.pending[i] == 0 {
			eng.SeedAt(m.ctl, 0, des.Payload{Kind: kReady, A: int32(i)})
		}
	}

	err := eng.Run(ctx)
	sc.Obs.Metrics.Counter("des.events").Add(eng.Stats().Committed)
	if err != nil {
		return out, err
	}

	// Read the committed states back.
	ctl := eng.LPState(m.ctl).(*ctlState)
	var states [2]*siteState
	for s, site := range sites {
		if site != nil {
			states[s] = eng.LPState(site.lp).(*siteState)
		}
	}
	if err := m.replay(states); err != nil {
		return out, err
	}
	if int(ctl.done) != len(w.Tasks) {
		panic(fmt.Sprintf("wfsched: deadlock: %d of %d tasks completed", ctl.done, len(w.Tasks)))
	}
	// The makespan is the last task completion, not the last event:
	// trailing slot repairs must not inflate it.
	out.Makespan = ctl.lastDone
	out.BytesTransferred = ctl.bytes
	out.Transfers = int(ctl.transfers)

	wastedJ := 0.0
	tasksRun := int64(0)
	for s, site := range sites {
		if site == nil {
			continue
		}
		st := states[s]
		kwh, co2 := site.finalize(st, out.Makespan)
		if SiteID(s) == Local {
			out.EnergyLocalKWh, out.CO2Local = kwh, co2
		} else {
			out.EnergyCloudKWh, out.CO2Cloud = kwh, co2
		}
		out.Retries += int(st.retries)
		wastedJ += st.wastedJ
		tasksRun += int64(st.tasksRun)
	}
	out.EnergyWastedKWh = wastedJ / 3.6e6
	out.CO2 = out.CO2Local + out.CO2Cloud
	if reg := sc.Obs.Metrics; reg != nil {
		reg.Counter("platform.tasks").Add(tasksRun)
		reg.Gauge("wfsched.makespan_s").Set(out.Makespan)
		reg.Gauge("wfsched.energy.local_kwh").Set(out.EnergyLocalKWh)
		reg.Gauge("wfsched.energy.cloud_kwh").Set(out.EnergyCloudKWh)
		reg.Gauge("wfsched.co2.total_g").Set(out.CO2)
		reg.Counter("wfsched.tasks.local").Add(int64(out.TasksLocal))
		reg.Counter("wfsched.tasks.cloud").Add(int64(out.TasksCloud))
		reg.Counter("wfsched.transfers").Add(int64(out.Transfers))
		reg.Counter("wfsched.retries").Add(int64(out.Retries))
		reg.Gauge("fault.energy.wasted_kwh").Set(out.EnergyWastedKWh)
	}
	return out, nil
}

// replay emits the sites' committed records merged in key order:
// fault notes to the injector (so Schedule(), counters and the live
// event stream match a sequential run's) and spans to the tracer. It
// stops at the first attempts exhaustion and reports it.
func (m *warpModel) replay(states [2]*siteState) error {
	type rec struct {
		twRecord
		site *siteModel
	}
	var all []rec
	for s, st := range states {
		if st == nil {
			continue
		}
		for _, r := range st.log {
			all = append(all, rec{r, m.sites[s]})
		}
	}
	// Each site's log is already in key order; keys are unique.
	sort.SliceStable(all, func(i, j int) bool { return all[i].key.Before(all[j].key) })
	for _, r := range all {
		name := r.site.name
		switch r.kind {
		case recHostFail:
			m.inj.NoteHostFailure(name, int(r.ord), int(r.attempt), r.val)
		case recRetry:
			m.inj.NoteTaskRetry(name, int(r.ord), int(r.attempt))
		case recExhausted:
			return fmt.Errorf("%w: task %d on %q failed all %d attempts",
				ErrAttemptsExhausted, r.ord, name, r.attempt)
		case recTask:
			m.tr.Span(r.site.tracks[r.slot], "task", obs.Seconds(r.key.At), obs.Seconds(r.val),
				obs.Arg{Key: "gflop", Value: int64(m.gflop[r.task])})
		case recKilled:
			m.tr.Span(r.site.tracks[r.slot], "task (killed)", obs.Seconds(r.key.At), obs.Seconds(r.val),
				obs.Arg{Key: "gflop", Value: int64(m.gflop[r.task])},
				obs.Arg{Key: "attempt", Value: int64(r.attempt)})
		case recRepair:
			m.tr.Span(r.site.tracks[r.slot], "repair", obs.Seconds(r.key.At), obs.Seconds(r.val))
		}
	}
	return nil
}

// ctlHandler is the controller LP: DAG readiness, staging, and the
// fluid link.
func (m *warpModel) ctlHandler(p *des.Proc, at float64, pl des.Payload) {
	st := p.State().(*ctlState)
	switch pl.Kind {
	case kReady:
		m.runTask(p, st, pl.A)
	case kFinished:
		// Idempotence guard: under speculation a site can report one
		// task finished twice with *different* keys (a false early
		// finish plus its re-execution, before the anti-message
		// lands). Never in a committed history — but until the repair
		// rollback arrives a duplicate must not double-count, or a
		// child readies while a real parent is still unfinished.
		if st.finished[pl.A] != 0 {
			return
		}
		p.Save(undoSlot(csFinished, int(pl.A)), 0)
		st.finished[pl.A] = 1
		site := m.sites[pl.B]
		for _, f := range m.outputs[pl.A] {
			st.setPresent(p, SiteID(pl.B), f)
		}
		saveI32(p, csDone, 0, st.done)
		st.done++
		if at > st.lastDone {
			saveF64(p, csLastDone, 0, st.lastDone)
			st.lastDone = at
		}
		if site.readyFirst {
			p.Send(site.lp, 0, des.Payload{Kind: kRelease, A: pl.C})
		}
		for _, c := range m.children[pl.A] {
			saveI32(p, csPending, int(c), st.pending[c])
			st.pending[c]--
			if st.pending[c] == 0 {
				m.runTask(p, st, c)
			}
		}
		if site.readyFirst {
			p.Send(site.lp, 0, des.Payload{Kind: kDrain})
		}
	case kJoin:
		key := pl.A*2 + pl.B
		m.advance(p, st)
		st.appendFlow(p, twFlow{key: key, remaining: m.fileBytes[pl.A]})
		m.settle(p, st)
	case kWake:
		if pl.A != st.wakeEpoch {
			return // superseded by a later settle
		}
		m.advance(p, st)
		m.settle(p, st)
	default:
		panic(fmt.Sprintf("wfsched: ctl got unknown message kind %d", pl.Kind))
	}
}

// runTask stages a ready task's missing inputs to its site, then
// submits it there.
func (m *warpModel) runTask(p *des.Proc, st *ctlState, task int32) {
	site := m.placement[task]
	if s := m.sites[site]; s == nil || len(s.groupOf) == 0 {
		where := "absent cloud"
		if site == Local {
			where = "powered-off cluster"
		}
		panic(fmt.Sprintf("wfsched: task %s placed on %s", m.tasks[task].ID, where))
	}
	missing := int32(0)
	for _, f := range m.inputs[task] {
		if st.present[site][f] != 0 {
			continue
		}
		missing++
		key := f*2 + int32(site)
		n := st.nwait[key]
		i := m.waitAt[key] + n
		saveI32(p, csWaiter, int(i), st.waiters[i])
		st.waiters[i] = task
		saveI32(p, csWaitLen, int(key), n)
		st.nwait[key] = n + 1
		if n > 0 {
			continue // already in flight
		}
		// Each transfer pays the link latency before its flow joins.
		p.Send(m.ctl, m.sc.LinkLatency, des.Payload{Kind: kJoin, A: f, B: int32(site)})
	}
	saveI32(p, csMissing, int(task), st.missing[task])
	st.missing[task] = missing
	if missing == 0 {
		m.submit(p, task)
	}
}

func (m *warpModel) submit(p *des.Proc, task int32) {
	p.Send(m.sites[m.placement[task]].lp, 0, des.Payload{Kind: kSubmit, A: task})
}

// advance drains every active flow by the time elapsed since the last
// link event, at the equal-share rate that was in force.
func (m *warpModel) advance(p *des.Proc, st *ctlState) {
	now := p.Now()
	if n := len(st.flows); n > 0 {
		rate := m.sc.LinkBandwidth / float64(n)
		dt := now - st.lastTouch
		for i := range st.flows {
			saveF64(p, csFlowRem, i, st.flows[i].remaining)
			st.flows[i].remaining -= rate * dt
		}
	}
	saveF64(p, csLastTouch, 0, st.lastTouch)
	st.lastTouch = now
}

// twFinishEps absorbs float round-off when deciding a flow has drained.
const twFinishEps = 1e-6

// settle completes drained flows (which raises the share of the
// survivors) and schedules one wake at the next earliest completion,
// superseding any earlier wake. A flow also counts as drained when its
// remaining ETA is under a microsecond: round-off can leave a residual
// whose ETA is below the clock's resolution at large timestamps, and
// a wake that cannot advance the clock would loop forever.
func (m *warpModel) settle(p *des.Proc, st *ctlState) {
	saveI32(p, csWakeEpoch, 0, st.wakeEpoch)
	st.wakeEpoch++
	var finished []twFlow
	for {
		n := len(st.flows)
		if n == 0 {
			break
		}
		rate := m.sc.LinkBandwidth / float64(n)
		thresh := math.Max(twFinishEps, rate*1e-6)
		kept := 0
		for i, f := range st.flows {
			if f.remaining <= thresh {
				finished = append(finished, f)
				continue
			}
			if kept != i {
				st.setFlow(p, kept, f)
			}
			kept++
		}
		if kept < n {
			saveLen(p, csFlowLen, n)
			st.flows = st.flows[:kept]
			continue // survivors' rate rose; re-evaluate thresholds
		}
		minRemaining := math.Inf(1)
		for _, f := range st.flows {
			if f.remaining < minRemaining {
				minRemaining = f.remaining
			}
		}
		p.Send(m.ctl, minRemaining/rate, des.Payload{Kind: kWake, A: st.wakeEpoch})
		break
	}
	for _, f := range finished {
		file, site := f.key/2, SiteID(f.key%2)
		saveF64(p, csBytes, 0, st.bytes)
		st.bytes += m.fileBytes[file]
		saveI32(p, csTransfers, 0, st.transfers)
		st.transfers++
		// The file is now present; wake the tasks waiting on it.
		st.setPresent(p, site, file)
		waiters := st.waiters[m.waitAt[f.key]:][:st.nwait[f.key]]
		saveI32(p, csWaitLen, int(f.key), st.nwait[f.key])
		st.nwait[f.key] = 0
		for _, t := range waiters {
			if st.missing[t] == 0 {
				continue // false duplicate finish (see kFinished guard)
			}
			saveI32(p, csMissing, int(t), st.missing[t])
			st.missing[t]--
			if st.missing[t] == 0 {
				m.submit(p, t)
			}
		}
	}
}

// siteHandler builds the handler for one site LP: submit, start,
// complete, kill, repair and retry over siteState.
func (m *warpModel) siteHandler(site *siteModel, id SiteID) des.Handler {
	return func(p *des.Proc, at float64, pl des.Payload) {
		st := p.State().(*siteState)
		switch pl.Kind {
		case kSubmit:
			q := twQueued{task: pl.A, ord: st.nextOrd}
			saveI32(p, ssNextOrd, 0, st.nextOrd)
			st.nextOrd++
			m.enqueue(p, st, site, q)
		case kDone:
			r := st.running[pl.A]
			g := site.groupOf[pl.A]
			gr := site.groups[g]
			duration := m.gflop[r.task] / gr.speed
			saveF64(p, ssJoules, int(g), st.joules[g])
			st.joules[g] += (gr.busy - gr.idle) * duration
			saveI32(p, ssTasksRun, 0, st.tasksRun)
			st.tasksRun++
			if !site.readyFirst {
				m.release(p, st, site, pl.A)
			}
			p.Send(m.ctl, 0, des.Payload{Kind: kFinished, A: r.task, B: int32(id), C: pl.A})
		case kKill:
			r := st.running[pl.A]
			g := site.groupOf[pl.A]
			gr := site.groups[g]
			partial := pl.F * (m.gflop[r.task] / gr.speed)
			saveF64(p, ssJoules, int(g), st.joules[g])
			st.joules[g] += (gr.busy - gr.idle) * partial
			saveF64(p, ssWastedJ, 0, st.wastedJ)
			st.wastedJ += gr.busy * partial
			repair := m.inj.RepairSec()
			saveLen(p, ssDowntimeLen, len(st.downtime))
			st.downtime = append(st.downtime, twDown{slot: pl.A, start: at, dur: repair})
			m.trace(p, st, twRecord{kind: recRepair, slot: pl.A, val: repair})
			p.Send(p.ID(), repair, des.Payload{Kind: kRepair, A: pl.A})

			retry := m.inj.Retry()
			if retry.MaxAttempts > 0 && int(r.attempt) >= retry.MaxAttempts {
				st.record(p, twRecord{kind: recExhausted, ord: r.ord, attempt: r.attempt})
				return
			}
			saveI32(p, ssRetries, 0, st.retries)
			st.retries++
			st.record(p, twRecord{kind: recRetry, ord: r.ord, attempt: r.attempt})
			p.Send(p.ID(), retry.Backoff(int(r.attempt)),
				des.Payload{Kind: kRetry, A: r.task, B: r.ord, C: r.attempt})
		case kRepair:
			m.release(p, st, site, pl.A)
		case kRetry:
			m.enqueue(p, st, site, twQueued{task: pl.A, ord: pl.B, attempt: pl.C})
		case kRelease:
			st.pushFree(p, int(site.groupOf[pl.A]), pl.A)
		case kDrain:
			for st.queued() && site.freeGroup(st) >= 0 {
				m.start(p, st, site, st.pop(p))
			}
		default:
			panic(fmt.Sprintf("wfsched: site %q got unknown message kind %d", site.name, pl.Kind))
		}
	}
}

// enqueue starts the task if a slot is free, else queues it FIFO.
func (m *warpModel) enqueue(p *des.Proc, st *siteState, site *siteModel, q twQueued) {
	if site.freeGroup(st) >= 0 {
		m.start(p, st, site, q)
		return
	}
	st.push(p, q)
}

// release returns a slot to its group and starts the queue head.
func (m *warpModel) release(p *des.Proc, st *siteState, site *siteModel, slot int32) {
	st.pushFree(p, int(site.groupOf[slot]), slot)
	if st.queued() {
		m.start(p, st, site, st.pop(p))
	}
}

// start runs the next attempt of q on a slot of the fastest free
// group. A host failure the injector decides for this attempt
// schedules a kill partway through it instead of a completion.
func (m *warpModel) start(p *des.Proc, st *siteState, site *siteModel, q twQueued) {
	g := site.freeGroup(st)
	slot := st.popFree(p, g)
	duration := m.gflop[q.task] / site.groups[g].speed
	q.attempt++
	st.setRunning(p, slot, q)
	if frac, fails := m.inj.HostFailureDecision(site.name, int(q.ord), int(q.attempt)); fails {
		partial := frac * duration
		st.record(p, twRecord{kind: recHostFail, ord: q.ord, attempt: q.attempt, val: frac})
		m.trace(p, st, twRecord{kind: recKilled, slot: slot, task: q.task, attempt: q.attempt, val: partial})
		p.Send(p.ID(), partial, des.Payload{Kind: kKill, A: slot, F: frac})
		return
	}
	m.trace(p, st, twRecord{kind: recTask, slot: slot, task: q.task, val: duration})
	p.Send(p.ID(), duration, des.Payload{Kind: kDone, A: slot})
}

// trace records a span for replay when a tracer is attached.
func (m *warpModel) trace(p *des.Proc, st *siteState, r twRecord) {
	if m.tr != nil {
		st.record(p, r)
	}
}
