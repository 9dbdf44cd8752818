package wfsched

// planet.go is the planet-scale stress scenario for the Time Warp
// kernel: a synthetic planetary grid of compute clusters running one
// enormous layered workflow. Unlike the Montage scenarios — whose
// single controller LP serializes most events — every cluster here is
// its own logical process, talking to the others only through
// positive-latency completion credits, so the event population spreads
// across as many LPs as the config asks for and the optimistic kernel
// has real parallelism to mine. Millions of tasks and hosts are just
// numbers in the config; per-task state is a handful of bytes.
//
// The DAG is procedural: task identity plus the seed determines its
// duration and its successor edges, so nothing quadratic is ever
// materialized and the same config always builds the same workload.

import (
	"context"
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/obs"
)

// PlanetConfig sizes the synthetic planetary datacenter.
type PlanetConfig struct {
	Clusters int // compute clusters; one LP each
	Hosts    int // parallel slots per cluster
	Tasks    int // tasks per cluster (Clusters x Tasks total)
	Layers   int // DAG depth; each cluster's tasks split evenly across layers
	Degree   int // successor credits per task, hashed across clusters

	Latency float64 // inter-cluster credit latency, seconds (> 0)
	Speed   float64 // Gflop/s per host
	BusyW   float64 // watts per busy host

	Seed uint64 // topology and duration randomness

	Workers int     // DES workers; <= 1 runs the sequential kernel
	Window  float64 // optimism window in simulated seconds (0 = off)
	Obs     obs.Sink
}

func (c PlanetConfig) withDefaults() PlanetConfig {
	if c.Clusters <= 0 {
		c.Clusters = 4
	}
	if c.Hosts <= 0 {
		c.Hosts = 8
	}
	if c.Tasks <= 0 {
		c.Tasks = 1000
	}
	if c.Layers <= 0 {
		c.Layers = 8
	}
	if c.Layers > c.Tasks {
		c.Layers = c.Tasks
	}
	if c.Degree <= 0 {
		c.Degree = 2
	}
	if c.Latency <= 0 {
		c.Latency = 0.05
	}
	if c.Speed <= 0 {
		c.Speed = 5
	}
	if c.BusyW <= 0 {
		c.BusyW = 90
	}
	return c
}

// PlanetOutcome is the committed result of a planet run. All fields
// are scalars so == is byte equality; Digest folds every cluster's
// committed completion stream in order, which pins the entire
// execution, not just its aggregates.
type PlanetOutcome struct {
	Makespan float64
	Tasks    int64
	EnergyJ  float64
	Digest   uint64
}

// Planet message kinds.
const (
	kPCredit = iota // one parent edge satisfied for local task A
	kPDone          // compute of local task A completes
)

// planetMix is a splitmix64-style hash: the procedural source of task
// durations and successor edges.
func planetMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// planetState is one cluster's rollback-able state: a flat slice of
// credit counters and a few scalars, so an event saves the handful of
// slots it writes rather than the kernel copying the cluster. The
// ready queue is a FIFO from head that only grows by append, so its
// length and head are the only queue slots saved.
type planetState struct {
	pending  []int32 // per local task: unsatisfied parent credits
	free     int32
	queue    []int32 // ready local tasks; queue[head:] are waiting
	head     int32
	tasksRun int64
	energyJ  float64
	lastDone float64
	digest   uint64
}

// planetState's undo slot kinds; a pending slot's index is the task.
const (
	psPending = iota
	psFree
	psQueueLen
	psHead
	psTasksRun
	psEnergy
	psLastDone
	psDigest
)

func (s *planetState) Undo(slot int32, old uint64) {
	kind, i := splitSlot(slot)
	switch kind {
	case psPending:
		s.pending[i] = int32(old)
	case psFree:
		s.free = int32(old)
	case psQueueLen:
		s.queue = s.queue[:old]
	case psHead:
		s.head = int32(old)
	case psTasksRun:
		s.tasksRun = int64(old)
	case psEnergy:
		s.energyJ = math.Float64frombits(old)
	case psLastDone:
		s.lastDone = math.Float64frombits(old)
	case psDigest:
		s.digest = old
	}
}

// planetModel is the immutable context: sizing, the seed, and the LP
// table.
type planetModel struct {
	cfg PlanetConfig
	lps []des.LPID
}

func (m *planetModel) layerOf(i int) int { return i * m.cfg.Layers / m.cfg.Tasks }

func (m *planetModel) layerBounds(l int) (int, int) {
	return l * m.cfg.Tasks / m.cfg.Layers, (l + 1) * m.cfg.Tasks / m.cfg.Layers
}

// duration returns global task g's compute time: 1-11 Gflop over the
// host speed, hashed from the seed.
func (m *planetModel) duration(g int) float64 {
	gflop := 1 + float64(planetMix(m.cfg.Seed^uint64(g)*2654435761)%1000)/100
	return gflop / m.cfg.Speed
}

// successors visits global task g's outgoing credit edges: Degree
// targets in the next layer, each in a hashed (usually different)
// cluster.
func (m *planetModel) successors(g int, visit func(cluster, local int)) {
	i := g % m.cfg.Tasks
	l := m.layerOf(i)
	if l+1 >= m.cfg.Layers {
		return
	}
	lo, hi := m.layerBounds(l + 1)
	for j := 0; j < m.cfg.Degree; j++ {
		h := planetMix(m.cfg.Seed ^ uint64(g)<<8 ^ uint64(j))
		cc := int(h % uint64(m.cfg.Clusters))
		li := lo + int((h>>24)%uint64(hi-lo))
		visit(cc, li)
	}
}

func (m *planetModel) handler(cluster int) des.Handler {
	cfg := m.cfg
	return func(p *des.Proc, at float64, pl des.Payload) {
		st := p.State().(*planetState)
		switch pl.Kind {
		case kPCredit:
			i := int(pl.A)
			if st.pending[i] == 0 {
				return // duplicate credit from false speculation
			}
			saveI32(p, psPending, i, st.pending[i])
			st.pending[i]--
			if st.pending[i] > 0 {
				return
			}
			if st.free > 0 {
				saveI32(p, psFree, 0, st.free)
				st.free--
				m.start(p, i)
			} else {
				saveLen(p, psQueueLen, len(st.queue))
				st.queue = append(st.queue, pl.A)
			}
		case kPDone:
			i := int(pl.A)
			g := cluster*cfg.Tasks + i
			p.Save(undoSlot(psTasksRun, 0), uint64(st.tasksRun))
			st.tasksRun++
			saveF64(p, psEnergy, 0, st.energyJ)
			st.energyJ += cfg.BusyW * m.duration(g)
			if at > st.lastDone {
				saveF64(p, psLastDone, 0, st.lastDone)
				st.lastDone = at
			}
			p.Save(undoSlot(psDigest, 0), st.digest)
			st.digest = planetMix(st.digest ^ uint64(g)<<1 ^ math.Float64bits(at))
			if int(st.head) < len(st.queue) {
				// The freed host goes straight to the queue head.
				next := st.queue[st.head]
				saveI32(p, psHead, 0, st.head)
				st.head++
				m.start(p, int(next))
			} else {
				saveI32(p, psFree, 0, st.free)
				st.free++
			}
			m.successors(g, func(cc, li int) {
				p.Send(m.lps[cc], cfg.Latency, des.Payload{Kind: kPCredit, A: int32(li)})
			})
		}
	}
}

// start runs local task i on a host its caller has taken.
func (m *planetModel) start(p *des.Proc, i int) {
	g := int(p.ID())*m.cfg.Tasks + i
	p.Send(p.ID(), m.duration(g), des.Payload{Kind: kPDone, A: int32(i)})
}

// SimulatePlanet runs the planetary grid to completion and returns
// its committed outcome — byte-identical for every cfg.Workers.
func SimulatePlanet(cfg PlanetConfig) PlanetOutcome {
	out, err := SimulatePlanetContext(context.Background(), cfg)
	if err != nil {
		panic(err) // unreachable: background ctx cannot cancel
	}
	return out
}

// SimulatePlanetContext is SimulatePlanet with cancellation.
func SimulatePlanetContext(ctx context.Context, cfg PlanetConfig) (PlanetOutcome, error) {
	cfg = cfg.withDefaults()
	if cfg.Tasks > maxSlotIndex {
		return PlanetOutcome{}, fmt.Errorf("wfsched: %d tasks per cluster exceed the undo log's %d", cfg.Tasks, maxSlotIndex)
	}
	m := &planetModel{cfg: cfg}

	// Count each task's parent credits by walking every edge once.
	states := make([]*planetState, cfg.Clusters)
	for c := range states {
		states[c] = &planetState{
			pending: make([]int32, cfg.Tasks),
			free:    int32(cfg.Hosts),
		}
	}
	total := cfg.Clusters * cfg.Tasks
	for g := 0; g < total; g++ {
		m.successors(g, func(cc, li int) { states[cc].pending[li]++ })
	}

	eng := des.NewWarp(des.WarpConfig{
		Workers: cfg.Workers, Window: cfg.Window, Obs: cfg.Obs,
	})
	m.lps = make([]des.LPID, cfg.Clusters)
	for c := range m.lps {
		m.lps[c] = eng.AddLP("cluster", states[c], m.handler(c))
	}

	// Roots (no incoming credits) get one synthetic credit each so the
	// ready path is uniform; seeded in global task order.
	for c := 0; c < cfg.Clusters; c++ {
		for i := 0; i < cfg.Tasks; i++ {
			if states[c].pending[i] == 0 {
				states[c].pending[i] = 1
				eng.SeedAt(m.lps[c], 0, des.Payload{Kind: kPCredit, A: int32(i)})
			}
		}
	}

	var out PlanetOutcome
	if err := eng.Run(ctx); err != nil {
		return out, err
	}
	for c := 0; c < cfg.Clusters; c++ {
		st := eng.LPState(m.lps[c]).(*planetState)
		if st.lastDone > out.Makespan {
			out.Makespan = st.lastDone
		}
		out.Tasks += st.tasksRun
		out.EnergyJ += st.energyJ
		out.Digest = planetMix(out.Digest ^ st.digest)
	}
	return out, nil
}
