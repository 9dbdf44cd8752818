package main

// fleet.go drives ghost and word count across real worker processes.
// An operation is one ghost run followed by one word count run; each
// starts a coordinator on a unix socket, spawns two workers (this
// binary in the worker role), computes, and waits for both processes to
// exit. The service and DES layers sit idle; internal/net and the fleet
// protocols dominate. The two applications share one workload and one
// operation, so every operation does the same work; alternating them
// would mix two costs in one run's readings. The benchmark sees the
// layers only from outside, through a pnet.Transport wrapper on each
// side.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/ghost"
	"repro/internal/grid"
	"repro/internal/mapreduce"
	pnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

const fleetWorkers = 2

// ghostWidth is the ghost runs' K: the halo depth, and the iterations
// a worker computes per round.
const ghostWidth = 2

// referenceRuns is how many times an application's in-process
// reference is computed at set-up; the median prices reference_ms.
const referenceRuns = 3

// fleetWarmups are untimed operations before the measured seconds, so
// the binary's pages are cached and the heap has grown.
const fleetWarmups = 2

// fleetApp is one computation the fleet workload runs across worker
// processes.
type fleetApp struct {
	name  string  // the application the worker role serves
	refMS float64 // in-process time of the same computation
	// run computes once over the fleet fc describes and reports whether
	// the output equals the in-process reference.
	run func(fc *pnet.FleetConfig) (bool, error)
	// counts are the application's own per-layer counts, summed over
	// the measured runs.
	counts map[string]float64
}

func ghostApp(seed int64) (*fleetApp, error) {
	// A 64x64 centre pile; the seed moves the grain count by up to 30,
	// and the number of rounds by about 2%.
	grains := uint32(4000 + 2*rand.New(rand.NewSource(seed)).Intn(16))
	build := func() *grid.Grid { return sandpile.Center(grains).Build(64, 64, nil) }
	opts := []ghost.Option{ghost.WithRanks(fleetWorkers), ghost.WithWidth(ghostWidth)}
	var ref *grid.Grid
	refMS, err := reference(func() (bool, error) {
		g := build()
		if _, err := ghost.New(g, opts...).Run(); err != nil {
			return false, err
		}
		same := ref == nil || g.Equal(ref)
		ref = g
		return same, nil
	})
	if err != nil {
		return nil, err
	}
	a := &fleetApp{name: "ghost", refMS: refMS, counts: map[string]float64{}}
	a.run = func(fc *pnet.FleetConfig) (bool, error) {
		g := build()
		rep, err := ghost.New(g, append(opts, ghost.WithFleet(fc))...).Run()
		if err != nil {
			return false, err
		}
		a.counts["ghost.rounds"] += float64(rep.Exchanges)
		a.counts["ghost.bytes"] += float64(rep.BytesSent)
		return g.Equal(ref), nil
	}
	return a, nil
}

func wordCountApp(seed int64) (*fleetApp, error) {
	lines := wordCorpus(seed, 10000)
	var ref []string
	refMS, err := reference(func() (bool, error) {
		out, _, err := wordCount().Run(lines)
		if err != nil {
			return false, err
		}
		same := ref == nil || slices.Equal(out, ref)
		ref = out
		return same, nil
	})
	if err != nil {
		return nil, err
	}
	a := &fleetApp{name: "wordcount", refMS: refMS, counts: map[string]float64{}}
	a.run = func(fc *pnet.FleetConfig) (bool, error) {
		out, stats, err := wordCount().RunFleet(context.Background(), lines, fc, wordWire())
		if err != nil {
			return false, err
		}
		a.counts["mapreduce.shuffle_runs"] += float64(stats.ShuffleRuns)
		a.counts["mapreduce.retries"] += float64(stats.TaskRetries)
		return slices.Equal(out, ref), nil
	}
	return a, nil
}

// reference times referenceRuns in-process runs of the computation a
// fleet run must reproduce; run reports whether its output matched the
// previous one.
func reference(run func() (bool, error)) (float64, error) {
	var times []float64
	for range referenceRuns {
		t0 := time.Now()
		same, err := run()
		if err != nil {
			return 0, fmt.Errorf("in-process reference: %w", err)
		}
		if !same {
			return 0, errors.New("in-process reference is not deterministic")
		}
		times = append(times, ms(time.Since(t0)))
	}
	_, med, _ := quartiles(times)
	return med, nil
}

// wordCorpus is n seeded lines of 6 to 15 words drawn from a Zipf-skewed
// 5000-word vocabulary, so a few keys dominate the shuffle.
func wordCorpus(seed int64, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, 4999)
	lines := make([]string, n)
	for i := range lines {
		var b strings.Builder
		for w := range 6 + rng.Intn(10) {
			if w > 0 {
				b.WriteByte(' ')
			}
			b.WriteString("w")
			b.WriteString(strconv.FormatUint(zipf.Uint64(), 36))
		}
		lines[i] = b.String()
	}
	return lines
}

// wordCount is the job the coordinator and every worker build: the
// worker process must construct the same Job, since only data crosses
// the wire.
func wordCount() *mapreduce.Job[string, string, int, string] {
	sum := func(vs []int) int {
		s := 0
		for _, v := range vs {
			s += v
		}
		return s
	}
	return &mapreduce.Job[string, string, int, string]{
		Name: "bench-wordcount",
		Map: func(line string, emit func(string, int)) error {
			for _, w := range strings.Fields(line) {
				emit(w, 1)
			}
			return nil
		},
		Combine: func(k string, vs []int) ([]int, error) { return []int{sum(vs)}, nil },
		Reduce: func(k string, vs []int, emit func(string)) error {
			emit(k + " " + strconv.Itoa(sum(vs)))
			return nil
		},
		Config: mapreduce.Config[string]{MapTasks: 32, ReduceTasks: 8},
	}
}

func wordWire() *mapreduce.Wire[string, string, int, string] {
	return &mapreduce.Wire[string, string, int, string]{
		AppendIn: mapreduce.AppendString, ReadIn: mapreduce.ReadString,
		AppendKey: mapreduce.AppendString, ReadKey: mapreduce.ReadString,
		AppendVal: mapreduce.AppendInt, ReadVal: mapreduce.ReadInt,
		AppendOut: mapreduce.AppendString, ReadOut: mapreduce.ReadString,
	}
}

// fleetRun is one application's run on a fresh fleet: its boundaries
// (start, both workers started, both registered, the computation
// returned, both processes exited), which partition it, and what the
// run measured.
type fleetRun struct {
	app                                      *fleetApp
	start, spawned, joined, returned, exited time.Time
	// setupCPU is the CPU time from the start until both workers had
	// registered: the coordinator's, plus each worker's at its
	// registration. 0 when a worker did not report it.
	setupCPU time.Duration
	exits    []workerExit
	net      tapStats // the coordinator's side
	refused  int
	same     bool
	err      error
}

func (r *fleetRun) ok() bool { return r.err == nil && !r.joined.IsZero() && r.same }

// launch runs app once on a fresh coordinator and worker pair.
func launch(rc *runCtx, unix pnet.Transport, app *fleetApp) *fleetRun {
	r := &fleetRun{app: app, start: time.Now()}
	cpu0 := selfCPU()
	tp := &tap{Transport: unix}
	sp := &spawner{self: rc.self, app: app.name}
	// A relative socket path keeps clear of the 108-byte sun_path limit
	// however deep the checkout sits; workers share the cwd.
	fc := &pnet.FleetConfig{
		Transport: tp, Listen: filepath.Join(rc.dir, "fleet.sock"), Workers: fleetWorkers,
		Spawn: sp.spawn,
	}
	r.same, r.err = app.run(fc)
	r.returned = time.Now()
	r.exits = sp.wait()
	r.exited = time.Now()
	r.spawned = sp.lastStart()
	join := tp.lastJoin()
	r.joined = join.at
	r.net, r.refused = tp.snapshot(), sp.refusals()
	r.setupCPU = join.cpu - cpu0
	for _, e := range r.exits {
		if e.stats.JoinCPU == 0 {
			r.setupCPU = 0
			break
		}
		r.setupCPU += e.stats.JoinCPU
	}
	if len(r.exits) != fleetWorkers {
		r.setupCPU = 0
	}
	if r.err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s fleet run: %v\n", app.name, r.err)
	} else if r.joined.IsZero() {
		fmt.Fprintf(os.Stderr, "bench: %s fleet run: no worker registered\n", app.name)
	}
	return r
}

// runFleet repeats the operation, ghost then word count, until the
// run's seconds are up.
func runFleet(rc *runCtx) (*measurement, error) {
	gh, err := ghostApp(rc.seed)
	if err != nil {
		return nil, err
	}
	wc, err := wordCountApp(rc.seed)
	if err != nil {
		return nil, err
	}
	apps := []*fleetApp{gh, wc}
	unix, err := pnet.New("unix")
	if err != nil {
		return nil, err
	}
	m := &measurement{}
	op := func() []*fleetRun {
		m.attempted++
		runs := make([]*fleetRun, len(apps))
		for i, a := range apps {
			runs[i] = launch(rc, unix, a)
			if !runs[i].ok() {
				m.failed++
				if runs[i].err == nil && !runs[i].same {
					m.mismatches++
				}
				return nil
			}
		}
		return runs
	}
	for range fleetWarmups {
		op()
	}
	for _, a := range apps {
		clear(a.counts)
	}

	var ops [][]*fleetRun
	var lags []float64
	base := sampleProc()
	start := time.Now()
	deadline := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	prevEnd := start
	for first := true; first || time.Now().Before(deadline); first = false {
		start := time.Now()
		lags = append(lags, ms(start.Sub(prevEnd)))
		runs := op()
		prevEnd = time.Now()
		if runs == nil {
			continue
		}
		ops = append(ops, runs)
		m.lat = append(m.lat, ms(prevEnd.Sub(start)))
		for _, r := range runs {
			if r.setupCPU > 0 {
				m.setupCPU = append(m.setupCPU, r.setupCPU.Seconds())
			}
			m.setupWall = append(m.setupWall, r.joined.Sub(r.start).Seconds())
		}
		traceFleetOp(rc, start, prevEnd, runs)
	}
	coord := sampleProc().sub(base)
	var workerRSS, workerCPU float64
	var handle time.Duration
	var coordNet tapStats
	refused, workerErrs := 0, 0
	stage := map[string]float64{} // summed stage times, ms
	for _, runs := range ops {
		for _, r := range runs {
			coordNet = coordNet.add(r.net)
			refused += r.refused
			stage[r.app.name] += ms(r.exited.Sub(r.start))
			stage["spawn"] += ms(r.spawned.Sub(r.start))
			stage["join"] += ms(r.joined.Sub(r.spawned))
			stage["body"] += ms(r.returned.Sub(r.joined))
			stage["teardown"] += ms(r.exited.Sub(r.returned))
			for _, e := range r.exits {
				workerRSS = max(workerRSS, e.maxRSSMB)
				workerCPU += ms(e.cpu)
				handle += e.stats.Handle
				if e.err != nil {
					workerErrs++
				}
			}
		}
	}
	m.rssMB = coord.MaxRSSMB + fleetWorkers*workerRSS
	m.cpuMS = (ms(coord.CPU) + workerCPU) / float64(len(ops))
	m.extra = map[string]any{"workers": fleetWorkers, "transport": "unix", "worker_errors": workerErrs}
	if !rc.traced() {
		return m, nil
	}

	n := float64(len(ops))
	total := mean(m.lat) * n
	m.layer("reference_ms", "ms", gh.refMS+wc.refMS)
	m.layer("gc_cpu_frac", "ratio", ratio(coord.GCCPU, coord.TotalCPU))
	m.layer("alloc_mb_per_op", "MB", float64(coord.Alloc)/n/(1<<20))
	m.layer("gen_lag_p99_ms", "ms", percentile(lags, 99))
	m.layer("share.fleet_ghost", "ratio", stage["ghost"]/total)
	m.layer("share.fleet_spawn", "ratio", stage["spawn"]/total)
	m.layer("share.fleet_join", "ratio", stage["join"]/total)
	m.layer("share.fleet_body", "ratio", stage["body"]/total)
	m.layer("share.fleet_teardown", "ratio", stage["teardown"]/total)
	m.layer("share.net_send", "ratio", ms(coordNet.Send)/total)
	m.layer("share.worker_handle", "ratio", ms(handle)/fleetWorkers/total)
	m.layer("net.frames_per_op", "count", float64(coordNet.Frames)/n)
	m.layer("net.bytes_per_op", "B", float64(coordNet.Bytes)/n)
	m.layer("ghost.rounds_per_op", "count", gh.counts["ghost.rounds"]/n)
	m.layer("ghost.bytes_per_round", "B", ratio(gh.counts["ghost.bytes"], gh.counts["ghost.rounds"]))
	m.layer("mapreduce.shuffle_runs_per_op", "count", wc.counts["mapreduce.shuffle_runs"]/n)
	m.layer("mapreduce.retries_per_op", "count", wc.counts["mapreduce.retries"]/n)
	// The per-workload table also keeps the stage times themselves and
	// each application's own latency.
	for _, a := range apps {
		var lat []float64
		for _, runs := range ops {
			for _, r := range runs {
				if r.app == a {
					lat = append(lat, ms(r.exited.Sub(r.start)))
				}
			}
		}
		m.layer(a.name+"_p50_ms", "ms", percentile(lat, 50))
		m.layer(a.name+"_p75_ms", "ms", percentile(lat, 75))
		m.layer(a.name+".inproc_ms", "ms", a.refMS)
	}
	for _, s := range []string{"spawn", "join", "body", "teardown"} {
		m.layer("fleet."+s+"_ms", "ms", stage[s]/n)
	}
	m.layer("coord.cpu_ms_per_op", "ms", ms(coord.CPU)/n)
	m.layer("worker.cpu_ms_per_op", "ms", workerCPU/n)
	m.layer("worker.handle_ms_per_op", "ms", ms(handle)/n)
	m.layer("net.send_ms_per_op", "ms", ms(coordNet.Send)/n)
	m.layer("fleet.respawns_refused_per_op", "count", float64(refused)/n)
	m.layer("fleet.worker_errors_per_op", "count", float64(workerErrs)/n)
	return m, nil
}

// traceFleetOp records one operation: a span over it and, on the
// coordinator track, each application's run with its four stages; each
// worker process's lifetime, with the time its handler spent on frames,
// goes on the worker's own track.
func traceFleetOp(rc *runCtx, start, end time.Time, runs []*fleetRun) {
	if !rc.traced() {
		return
	}
	zero := time.Now().Add(-rc.tracer.Now()) // wall time of the tracer's zero
	span := func(tr obs.TrackID, name string, from, to time.Time, args ...obs.Arg) {
		rc.tracer.Span(tr, name, from.Sub(zero), to.Sub(from), args...)
	}
	track := rc.tracer.Track("fleet", 0, "coordinator")
	span(track, "fleet op", start, end)
	for _, r := range runs {
		span(track, r.app.name+" run", r.start, r.exited)
		span(track, "spawn", r.start, r.spawned)
		span(track, "join", r.spawned, r.joined)
		span(track, "body", r.joined, r.returned)
		span(track, "teardown", r.returned, r.exited)
		for _, e := range r.exits {
			wt := rc.tracer.Track("fleet", 1+e.rank, fmt.Sprintf("worker rank %d", e.rank))
			span(wt, r.app.name+" worker", e.started, e.ended,
				obs.Arg{Key: "handle_us", Value: e.stats.Handle.Microseconds()},
				obs.Arg{Key: "frames", Value: e.stats.Frames},
				obs.Arg{Key: "cpu_us", Value: e.cpu.Microseconds()})
		}
	}
}

// tap wraps a pnet.Transport on either end of a fleet connection. It
// counts application frames in both directions and times their sends.
// On an accepted connection it marks the first frame sent, the
// coordinator's answer to a worker's hello: the worker's registration.
// On a worker's single connection it also times each frame's handling,
// from the frame's arrival to the worker's reply.
type tap struct {
	pnet.Transport
	mu       sync.Mutex
	joins    []joinMark
	stats    tapStats
	received time.Time // arrival of the frame being handled
}

// joinMark is a worker's registration as the coordinator saw it, with
// the coordinator's CPU time at that moment.
type joinMark struct {
	at  time.Time
	cpu time.Duration
}

// tapStats is what a tap measured; a worker reports its own when it
// exits.
type tapStats struct {
	Frames int64         `json:"frames"`
	Bytes  int64         `json:"bytes"`
	Send   time.Duration `json:"send_ns"`
	Handle time.Duration `json:"handle_ns"`
	// JoinCPU is a worker's CPU time when the coordinator's first frame,
	// its answer to the worker's hello, arrived: the worker's start-up.
	JoinCPU time.Duration `json:"join_cpu_ns"`
}

func (s tapStats) add(o tapStats) tapStats {
	return tapStats{Frames: s.Frames + o.Frames, Bytes: s.Bytes + o.Bytes,
		Send: s.Send + o.Send, Handle: s.Handle + o.Handle}
}

func (t *tap) snapshot() tapStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

func (t *tap) Listen(addr string) (pnet.Listener, error) {
	ln, err := t.Transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &tapListener{Listener: ln, tap: t}, nil
}

func (t *tap) Dial(addr string) (pnet.Conn, error) {
	c, err := t.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: t, dialled: true}, nil
}

// lastJoin returns the latest registration, the zero mark if no worker
// registered. A worker can miss a run altogether: word count hands out
// tasks as workers join, and a worker exec'd late can find every task
// done and the coordinator gone; it then exits with an error, which
// the run counts but does not fail on.
func (t *tap) lastJoin() joinMark {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.joins) == 0 {
		return joinMark{}
	}
	return slices.MaxFunc(t.joins, func(a, b joinMark) int { return a.at.Compare(b.at) })
}

type tapListener struct {
	pnet.Listener
	tap *tap
}

func (l *tapListener) Accept() (pnet.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tapConn{Conn: c, tap: l.tap}, nil
}

type tapConn struct {
	pnet.Conn
	tap     *tap
	dialled bool // a worker's connection to the coordinator
	joined  bool // guarded by tap.mu; the registration on an accepted connection is marked
}

func (c *tapConn) Send(m pnet.Msg) error {
	t0 := time.Now()
	err := c.Conn.Send(m)
	c.tap.mu.Lock()
	defer c.tap.mu.Unlock()
	if !c.dialled && !c.joined && err == nil {
		c.joined = true
		c.tap.joins = append(c.tap.joins, joinMark{at: time.Now(), cpu: selfCPU()})
	}
	if m.Type < pnet.FrameApp {
		return err
	}
	if !c.tap.received.IsZero() {
		c.tap.stats.Handle += t0.Sub(c.tap.received)
		c.tap.received = time.Time{}
	}
	c.tap.stats.Frames++
	c.tap.stats.Bytes += int64(len(m.Payload))
	c.tap.stats.Send += time.Since(t0)
	return err
}

func (c *tapConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	m, err := c.Conn.Recv(timeout)
	if err == nil && c.dialled {
		c.tap.mu.Lock()
		if c.tap.stats.JoinCPU == 0 {
			c.tap.stats.JoinCPU = selfCPU()
		}
		c.tap.mu.Unlock()
	}
	if err == nil && m.Type >= pnet.FrameApp {
		c.tap.mu.Lock()
		c.tap.received = time.Now()
		c.tap.stats.Frames++
		c.tap.stats.Bytes += int64(len(m.Payload))
		c.tap.mu.Unlock()
	}
	return m, err
}

// errRespawn refuses a second launch of a rank within one run. The
// coordinator's supervisor can see a worker's clean exit after the stop
// message as a death and relaunch it before the run closes; such a
// worker would only find the socket gone.
var errRespawn = errors.New("bench: rank already launched in this run")

// spawner is the FleetConfig.Spawn hook: it starts each rank once as a
// worker process of this binary.
type spawner struct {
	self, app string

	mu      sync.Mutex
	procs   []*workerProc
	last    time.Time
	refused int
}

type workerProc struct {
	rank    int
	cmd     *exec.Cmd
	out     bytes.Buffer
	started time.Time
}

// workerExit is what the coordinator learns about a worker process
// once it has exited.
type workerExit struct {
	rank           int
	started, ended time.Time
	cpu            time.Duration
	maxRSSMB       float64
	stats          tapStats
	err            error
}

func (s *spawner) spawn(rank int, addr string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range s.procs {
		if p.rank == rank {
			s.refused++
			return errRespawn
		}
	}
	p := &workerProc{rank: rank, cmd: exec.Command(s.self)}
	p.cmd.Env = append(os.Environ(), roleEnv+"=worker", "PEACHYBENCH_APP="+s.app,
		"PEACHYBENCH_JOIN="+addr, "PEACHYBENCH_RANK="+strconv.Itoa(rank))
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	p.started = time.Now()
	if err := p.cmd.Start(); err != nil {
		return err
	}
	s.procs = append(s.procs, p)
	s.last = time.Now()
	return nil
}

func (s *spawner) refusals() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.refused
}

func (s *spawner) lastStart() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// wait reaps every worker process of the run.
func (s *spawner) wait() []workerExit {
	s.mu.Lock()
	procs := slices.Clone(s.procs)
	s.mu.Unlock()
	exits := make([]workerExit, 0, len(procs))
	for _, p := range procs {
		e := workerExit{rank: p.rank, started: p.started, err: p.cmd.Wait()}
		e.ended = time.Now()
		if ru, ok := p.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
			e.cpu = rusageCPU(ru)
			e.maxRSSMB = float64(ru.Maxrss) / 1024
		}
		if e.err == nil {
			e.err = json.Unmarshal(p.out.Bytes(), &e.stats)
		}
		exits = append(exits, e)
	}
	return exits
}

// workerRole is a fleet worker process: join the coordinator named in
// the environment and serve the application's frames until stopped.
func workerRole() error {
	rank, err := strconv.Atoi(os.Getenv("PEACHYBENCH_RANK"))
	if err != nil {
		return fmt.Errorf("PEACHYBENCH_RANK: %w", err)
	}
	unix, err := pnet.New("unix")
	if err != nil {
		return err
	}
	wt := &tap{Transport: unix}
	cfg := pnet.WorkerConfig{
		Transport: wt, Join: os.Getenv("PEACHYBENCH_JOIN"), Rank: rank,
		// The coordinator is up before any worker starts; a worker that
		// cannot reach it should give up quickly, not ride out the
		// default 10-attempt backoff.
		Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond, Seed: int64(rank)},
		MaxDialAttempts: 5,
	}
	switch app := os.Getenv("PEACHYBENCH_APP"); app {
	case "ghost":
		err = ghost.FleetWorker(context.Background(), cfg)
	case "wordcount":
		err = wordCount().FleetWorker(context.Background(), cfg, wordWire())
	default:
		err = fmt.Errorf("unknown fleet application %q", app)
	}
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(wt.snapshot())
}
