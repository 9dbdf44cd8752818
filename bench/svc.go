package main

// svc.go drives the peachyd job service the way tenants use it. The
// server is this binary in the server role, built as cmd/peachyd builds
// it (default runners, 2 executors, queue 256, quota 32) and started
// with job.StartService on loopback. The client is this process with
// two goroutines and two connections: one submits, the other polls
// each job's status and fetches its result, which must equal the bytes
// the same runner produced in-process at set-up.
//
// The load is a closed loop holding inFlight jobs in flight: a job is
// submitted when an earlier one has delivered its result. A closed
// loop cannot push the server past its capacity, so a slower host
// makes every job slower rather than growing a queue until admission
// refuses jobs, as a fixed-rate open loop did. Latency is timed from
// the moment the slot was freed, so the client's own reaction counts.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/job"
	"repro/internal/job/runners"
	"repro/internal/obs"
)

// jobClass is one kind of job in the mix; weight is its count in every
// 20 jobs. A run draws four variants of each class from its seed. Only
// inputs that leave a job's cost nearly unchanged vary: a sparse pile's
// seed, a corpus seed, a cluster size. The ghost and centre piles stay
// fixed, because their run time jumps by up to 40 % between grain
// counts a few dozen apart.
type jobClass struct {
	name   string
	kind   string
	weight int
	params func(v int) string
}

var jobClasses = []jobClass{
	{"sandpile_center", "sandpile", 6, func(int) string {
		return `{"size":64,"config":"center","grains":4000}`
	}},
	{"sandpile_sparse", "sandpile", 2, func(v int) string {
		return fmt.Sprintf(`{"size":256,"config":"sparse","variant":"lazy-sync","maxIters":200,"seed":%d}`, v)
	}},
	{"sandpile_ghost", "sandpile", 1, func(int) string {
		return `{"size":96,"config":"center","grains":20000,"ranks":2,"ghostWidth":2}`
	}},
	{"mapreduce", "mapreduce", 5, func(v int) string {
		return fmt.Sprintf(`{"docs":500,"seed":%d}`, v)
	}},
	{"wfsim_tab1", "wfsim", 3, func(v int) string {
		return fmt.Sprintf(`{"mode":"tab1","nodes":%d}`, 48+v)
	}},
	{"wfsim_tab2", "wfsim", 3, func(int) string {
		return `{"mode":"tab2"}`
	}},
}

const (
	variantsPerClass = 4
	tenants          = 8
	// inFlight keeps both executors busy with jobs queued behind them,
	// so they never idle waiting on the client: at a light load a job's
	// submit and pickup wait on idle threads waking, which on a shared
	// 2-vCPU VM costs 0.4 or 2 ms depending on the host. It stays below
	// the tenant quota and the queue depth, so no job is refused.
	inFlight = 8
	// svcWarmup runs untimed before the measured seconds: the server's
	// heap and connections grow to their working size.
	svcWarmup = 2 * time.Second
	// pollGap paces the poller between sweeps over the jobs in flight.
	pollGap = time.Millisecond
	// serverStarts is how many times a run starts the server; the last
	// one serves the traffic, and the others are each stopped once
	// /healthz answers, their CPU time from exec to exit a set-up.
	serverStarts     = 11
	serverExecutors  = 2
	serverStartLimit = 30 * time.Second
)

func runSvcMixed(rc *runCtx) (*measurement, error)   { return runSvc(rc, false) }
func runSvcDurable(rc *runCtx) (*measurement, error) { return runSvc(rc, true) }

// svcJob is one submission and what the client saw of it.
type svcJob struct {
	name     string
	class    int
	spec     []byte
	want     []byte // the result bytes the in-process runner produced
	lane     int    // trace row
	measured bool   // submitted in the measured window, not the warm-up

	due, sent, accepted, done time.Time
	id                        string
	gets                      int
	ok, wrong                 bool
}

// jobMix deals jobs in seeded order: each block of 20 holds every class
// at its weight, shuffled, so every run sees the mix's exact shares.
type jobMix struct {
	rng      *rand.Rand
	variants [][]int // per class, the run's variant numbers
	bag      []int
	n        int
}

func newJobMix(seed int64) *jobMix {
	mx := &jobMix{rng: rand.New(rand.NewSource(seed))}
	for range jobClasses {
		vs := make([]int, variantsPerClass)
		for i := range vs {
			vs[i] = mx.rng.Intn(16)
		}
		mx.variants = append(mx.variants, vs)
	}
	return mx
}

// specKey names a class variant by its params: the unit results are
// cached under.
func specKey(class, variant int) string { return jobClasses[class].params(variant) }

func (mx *jobMix) next(oracle map[string][]byte) *svcJob {
	if len(mx.bag) == 0 {
		for c, jc := range jobClasses {
			for range jc.weight {
				mx.bag = append(mx.bag, c)
			}
		}
		mx.rng.Shuffle(len(mx.bag), func(i, j int) { mx.bag[i], mx.bag[j] = mx.bag[j], mx.bag[i] })
	}
	c := mx.bag[len(mx.bag)-1]
	mx.bag = mx.bag[:len(mx.bag)-1]
	v := mx.variants[c][mx.rng.Intn(variantsPerClass)]
	j := &svcJob{name: fmt.Sprintf("j%05d", mx.n), class: c, lane: mx.n % 16, want: oracle[specKey(c, v)]}
	mx.n++
	spec, err := json.Marshal(job.Spec{
		Kind: jobClasses[c].kind, Name: j.name,
		Tenant: fmt.Sprintf("tenant-%d", mx.rng.Intn(tenants)),
		Params: json.RawMessage(jobClasses[c].params(v)),
	})
	if err != nil {
		panic(err) // the params templates above are valid JSON
	}
	j.spec = spec
	return j
}

// oracles runs every distinct variant the mix can deal once,
// in-process, and returns its result bytes by specKey plus the
// mix-weighted mean runner time.
func (mx *jobMix) oracles() (map[string][]byte, float64, error) {
	out := map[string][]byte{}
	defaults := runners.Defaults()
	weighted := 0.0
	for c, jc := range jobClasses {
		var times []float64
		for _, v := range mx.variants[c] {
			key := specKey(c, v)
			if _, ok := out[key]; ok {
				continue
			}
			spec := job.Spec{Kind: jc.kind, Tenant: "oracle", Params: json.RawMessage(jc.params(v))}
			t0 := time.Now()
			res, err := defaults[jc.kind].Run(context.Background(), spec, obs.NewProgress(nil))
			if err != nil {
				return nil, 0, fmt.Errorf("oracle %s: %w", jc.name, err)
			}
			times = append(times, ms(time.Since(t0)))
			if out[key], err = json.Marshal(res); err != nil {
				return nil, 0, err
			}
		}
		weighted += mean(times) * float64(jc.weight) / 20
	}
	return out, weighted, nil
}

func runSvc(rc *runCtx, durable bool) (*measurement, error) {
	m := &measurement{}
	mix := newJobMix(rc.seed)
	oracle, refMS, err := mix.oracles()
	if err != nil {
		return nil, err
	}

	var srv *server
	for i := range serverStarts {
		state := ""
		if durable {
			state = filepath.Join(rc.dir, fmt.Sprintf("state-%d", i))
		}
		s, took, err := startServer(rc, state)
		if err != nil {
			return nil, err
		}
		m.setupWall = append(m.setupWall, took.Seconds())
		if i < serverStarts-1 {
			_, ru, err := s.stop()
			if err != nil {
				return nil, err
			}
			m.setupCPU = append(m.setupCPU, rusageCPU(ru).Seconds())
			continue
		}
		srv = s
	}
	defer srv.kill()

	cl := &svcClient{base: "http://" + srv.addr, submitC: newHTTPClient(), pollC: newHTTPClient()}
	// A slot's release time is the next job's due time, so the client's
	// own reaction counts as generator lag.
	loopStart := time.Now()
	start := loopStart.Add(svcWarmup)
	end := start.Add(time.Duration(rc.seconds * float64(time.Second)))
	slots := make(chan time.Time, inFlight)
	for range inFlight {
		slots <- loopStart
	}
	submitted := make(chan *svcJob, inFlight)
	var jobs []*svcJob
	go func() {
		defer close(submitted)
		for {
			var due time.Time
			select {
			case due = <-slots:
			case <-time.After(time.Until(end)):
				return
			}
			if !time.Now().Before(end) {
				return
			}
			j := mix.next(oracle)
			j.due, j.measured = due, !due.Before(start)
			cl.submit(j)
			jobs = append(jobs, j)
			submitted <- j
		}
	}()
	cl.poll(submitted, func(j *svcJob) { slots <- j.done })

	rep, ru, err := srv.stop()
	if err != nil {
		return nil, err
	}
	var lags []float64
	served := 0
	for _, j := range jobs {
		m.attempted++
		switch {
		case j.wrong:
			m.mismatches++
			m.failed++
		case !j.ok:
			m.failed++
		case j.measured:
			m.lat = append(m.lat, ms(j.done.Sub(j.due)))
			lags = append(lags, ms(j.sent.Sub(j.due)))
		}
		if j.ok {
			served++
		}
	}
	// The serving server's whole life, warm-up included, over every job
	// it served: what a job costs the machine.
	m.cpuMS = ms(rusageCPU(ru)) / float64(served)
	m.rssMB = float64(ru.Maxrss) / 1024
	m.extra = map[string]any{
		"in_flight": inFlight, "jobs": len(jobs),
		"gen_lag_p99_ms": percentile(lags, 99), "durable": durable,
	}
	if rc.traced() {
		svcLayers(rc, m, jobs, rep, refMS, percentile(lags, 99))
	}
	return m, nil
}

// svcLayers breaks the measured jobs, the ones traced_p50_ms comes from, into
// the spans between the instants both sides saw: due and sent
// (generator lag), sent and accepted (the submit request), accepted
// and the runner's start in the server (admission and queue wait), the
// runner itself, and the runner's end to the client holding the result
// (poll delay and fetch). The spans partition each job's latency: the
// server's two readings cancel, so clock skew between the processes
// shows as a negative queue wait or delivery, never as a gap. The
// checkpoint store's saves are counted over the measured jobs' window;
// CPU and allocation are the server's whole life over every job it ran.
func svcLayers(rc *runCtx, m *measurement, jobs []*svcJob, rep serverReport, refMS, lagP99 float64) {
	var lag, submit, queue, run, delivery, latency float64
	var submits, queues, deliveries []float64
	byClass := make([][]float64, len(jobClasses))
	gets, n, served := 0, 0, 0
	var from, to time.Time
	zero := time.Now().Add(-rc.tracer.Now())
	for _, j := range jobs {
		r, ok := rep.Runs[j.name]
		if !j.ok || !ok {
			continue
		}
		served++
		runStart, runEnd := time.Unix(0, r[0]), time.Unix(0, r[1])
		tr := rc.tracer.Track("client", j.lane, fmt.Sprintf("lane %d", j.lane))
		span := func(name string, from, to time.Time) {
			rc.tracer.Span(tr, name, from.Sub(zero), to.Sub(from))
		}
		span("job "+jobClasses[j.class].name, j.due, j.done)
		span("lag", j.due, j.sent)
		span("submit", j.sent, j.accepted)
		span("queue", j.accepted, runStart)
		span("run", runStart, runEnd)
		span("delivery", runEnd, j.done)
		if !j.measured {
			continue
		}
		if n == 0 || j.due.Before(from) {
			from = j.due
		}
		if j.done.After(to) {
			to = j.done
		}
		n++
		gets += j.gets
		q, d := ms(runStart.Sub(j.accepted)), ms(j.done.Sub(runEnd))
		lag += ms(j.sent.Sub(j.due))
		submit += ms(j.accepted.Sub(j.sent))
		queue += q
		run += ms(runEnd.Sub(runStart))
		delivery += d
		latency += ms(j.done.Sub(j.due))
		submits = append(submits, ms(j.accepted.Sub(j.sent)))
		queues = append(queues, q)
		deliveries = append(deliveries, d)
		byClass[j.class] = append(byClass[j.class], ms(runEnd.Sub(runStart)))
	}
	var saves []float64
	saveTotal, saveBytes := 0.0, 0.0
	for _, s := range rep.Spans {
		start := time.Unix(0, s.Start)
		tr := rc.tracer.Track("server "+s.Process, s.TID, s.Thread)
		rc.tracer.Span(tr, s.Name, start.Sub(zero), time.Duration(s.Dur), s.Args...)
		if s.Name != "ckpt.save" || start.Before(from) || start.After(to) {
			continue
		}
		saves = append(saves, ms(time.Duration(s.Dur)))
		saveTotal += ms(time.Duration(s.Dur))
		for _, a := range s.Args {
			if a.Key == "bytes" {
				saveBytes += float64(a.Value)
			}
		}
	}
	fn := float64(n)
	m.layer("reference_ms", "ms", refMS)
	m.layer("gc_cpu_frac", "ratio", ratio(rep.Proc.GCCPU, rep.Proc.TotalCPU))
	m.layer("alloc_mb_per_op", "MB", float64(rep.Proc.Alloc)/float64(served)/(1<<20))
	m.layer("gen_lag_p99_ms", "ms", lagP99)
	m.layer("share.gen_lag", "ratio", lag/latency)
	m.layer("share.http_submit", "ratio", submit/latency)
	m.layer("share.queue_wait", "ratio", queue/latency)
	m.layer("share.runner", "ratio", run/latency)
	m.layer("share.delivery", "ratio", delivery/latency)
	m.layer("share.ckpt_save", "ratio", saveTotal/latency)
	m.layer("poll.gets_per_job", "count", float64(gets)/fn)
	m.layer("ckpt.saves_per_job", "count", float64(len(saves))/fn)
	m.layer("ckpt.bytes_per_save", "B", ratio(saveBytes, float64(len(saves))))
	// The per-workload table also keeps the layers' own percentiles.
	m.layer("http.submit_p50_ms", "ms", percentile(submits, 50))
	m.layer("http.submit_p99_ms", "ms", percentile(submits, 99))
	m.layer("job.queue_wait_p50_ms", "ms", percentile(queues, 50))
	m.layer("job.queue_wait_p99_ms", "ms", percentile(queues, 99))
	m.layer("job.delivery_p50_ms", "ms", percentile(deliveries, 50))
	for c, ts := range byClass {
		if len(ts) > 0 {
			m.layer("runner."+jobClasses[c].name+"_p50_ms", "ms", percentile(ts, 50))
		}
	}
	if len(saves) > 0 {
		m.layer("ckpt.save_p50_ms", "ms", percentile(saves, 50))
		m.layer("ckpt.save_p99_ms", "ms", percentile(saves, 99))
	}
}

type svcClient struct {
	base           string
	submitC, pollC *http.Client
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

// do runs one request and returns its status and body.
func do(c *http.Client, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit posts the job; a refusal (429) or any other failure leaves
// j.id empty.
func (c *svcClient) submit(j *svcJob) {
	j.sent = time.Now()
	code, body, err := do(c.submitC, http.MethodPost, c.base+"/v1/jobs", j.spec)
	j.accepted = time.Now()
	var v struct {
		ID string `json:"id"`
	}
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "bench: submit %s: %v\n", j.name, err)
	case code != http.StatusAccepted:
		fmt.Fprintf(os.Stderr, "bench: submit %s: status %d: %s\n", j.name, code, strings.TrimSpace(string(body)))
	case json.Unmarshal(body, &v) != nil || v.ID == "":
		fmt.Fprintf(os.Stderr, "bench: submit %s: no job id in %q\n", j.name, body)
	default:
		j.id = v.ID
	}
}

// poll owns the jobs in flight: it takes each submitted job from in,
// sweeps the unfinished ones every pollGap, and hands each finished job
// to finished. It returns when in is closed and every job has finished.
// A sweep goes in submission order and stops at the first job still
// queued: jobs of one priority class start in FIFO order, so every
// later job is queued too, and polling them would only spend the CPU
// the server is being measured on.
func (c *svcClient) poll(in <-chan *svcJob, finished func(*svcJob)) {
	var flight []*svcJob
	add := func(j *svcJob) {
		if j.id == "" {
			j.done = time.Now()
			finished(j)
			return
		}
		flight = append(flight, j)
	}
	open := true
	for open || len(flight) > 0 {
		if len(flight) == 0 {
			j, ok := <-in
			if !ok {
				open = false
				continue
			}
			add(j)
		}
	drain:
		for open {
			select {
			case j, ok := <-in:
				if !ok {
					open = false
					break drain
				}
				add(j)
			default:
				break drain
			}
		}
		kept := flight[:0]
		for i, j := range flight {
			switch c.check(j) {
			case job.StateQueued:
				kept = append(kept, flight[i:]...)
			case job.StateRunning:
				kept = append(kept, j)
				continue
			default:
				finished(j)
				continue
			}
			break
		}
		flight = kept
		if len(flight) > 0 {
			time.Sleep(pollGap)
		}
	}
}

// check polls one job and returns its state. Once the job is terminal
// it fetches and verifies the result and sets j.done; an error ends the
// job as failed.
func (c *svcClient) check(j *svcJob) job.State {
	j.gets++
	code, body, err := do(c.pollC, http.MethodGet, c.base+"/v1/jobs/"+j.id, nil)
	var v struct {
		State job.State `json:"state"`
		Error string    `json:"error"`
	}
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(body, &v)
	} else if err == nil {
		err = fmt.Errorf("status %d", code)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: poll %s: %v\n", j.name, err)
		j.done = time.Now()
		return job.StateFailed
	}
	switch v.State {
	case job.StateSucceeded:
	case job.StateQueued, job.StateRunning:
		return v.State
	default:
		fmt.Fprintf(os.Stderr, "bench: job %s %s: %s\n", j.name, v.State, v.Error)
		j.done = time.Now()
		return v.State
	}
	code, body, err = do(c.pollC, http.MethodGet, c.base+"/v1/jobs/"+j.id+"/result", nil)
	j.done = time.Now()
	switch {
	case err != nil || code != http.StatusOK:
		fmt.Fprintf(os.Stderr, "bench: result %s: status %d, %v\n", j.name, code, err)
	case !bytes.Equal(body, j.want):
		fmt.Fprintf(os.Stderr, "bench: job %s (%s): result differs from the in-process run\n",
			j.name, jobClasses[j.class].name)
		j.wrong = true
	default:
		j.ok = true
	}
	return job.StateSucceeded
}

// server is a running job server process.
type server struct {
	cmd    *exec.Cmd
	addr   string
	stdout *bufio.Reader
}

// startServer starts the server role and returns once /healthz answers
// 200, with the time from exec to that answer.
func startServer(rc *runCtx, stateDir string) (*server, time.Duration, error) {
	trace := "0"
	if rc.traced() {
		trace = "1"
	}
	cmd := exec.Command(rc.self)
	cmd.Env = append(os.Environ(), roleEnv+"=server", "PEACHYBENCH_STATE="+stateDir, "PEACHYBENCH_TRACE="+trace)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	s := &server{cmd: cmd, stdout: bufio.NewReader(pipe)}
	line, err := s.stdout.ReadString('\n')
	addr, found := strings.CutPrefix(strings.TrimSpace(line), "listening ")
	if err != nil || !found {
		s.kill()
		return nil, 0, fmt.Errorf("server did not announce its address: %q %v", line, err)
	}
	s.addr = addr
	hc := &http.Client{Timeout: time.Second}
	for {
		code, _, err := do(hc, http.MethodGet, "http://"+addr+"/healthz", nil)
		if err == nil && code == http.StatusOK {
			break
		}
		if time.Since(t0) > serverStartLimit {
			s.kill()
			return nil, 0, fmt.Errorf("server /healthz: status %d, %v", code, err)
		}
		time.Sleep(time.Millisecond)
	}
	hc.CloseIdleConnections()
	return s, time.Since(t0), nil
}

// stop shuts the server down as an operator would (SIGTERM) and
// returns its exit report and resource usage.
func (s *server) stop() (serverReport, *syscall.Rusage, error) {
	var rep serverReport
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return rep, nil, err
	}
	out, readErr := io.ReadAll(s.stdout)
	if err := s.cmd.Wait(); err != nil {
		return rep, nil, fmt.Errorf("server: %w", err)
	}
	if readErr != nil {
		return rep, nil, readErr
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, nil, fmt.Errorf("server report: %w", err)
	}
	ru, ok := s.cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return rep, nil, errors.New("server rusage unavailable")
	}
	return rep, ru, nil
}

// kill ends the server if it is still running; a no-op after stop.
func (s *server) kill() {
	if s.cmd.ProcessState == nil {
		_ = s.cmd.Process.Kill() // best effort: the process may be exiting
		_ = s.cmd.Wait()
	}
}

// serverReport is what the server role prints when it exits.
type serverReport struct {
	Proc procSample `json:"proc"`
	// Runs maps a job's name to its runner's start and end, Unix ns.
	Runs  map[string][2]int64 `json:"runs,omitempty"`
	Spans []serverSpan        `json:"spans,omitempty"`
}

// serverSpan is a span of the server's tracer, placed in absolute time
// so the client can merge it into its own trace.
type serverSpan struct {
	Process string    `json:"process"`
	TID     int       `json:"tid"`
	Thread  string    `json:"thread"`
	Name    string    `json:"name"`
	Start   int64     `json:"start_ns"` // Unix ns
	Dur     int64     `json:"dur_ns"`
	Args    []obs.Arg `json:"args,omitempty"`
}

// timedRunner wraps a job.Runner to record when each job's runner ran.
// It also strips the tracer from the job's environment: the server's
// tracer exists for the checkpoint store's ckpt.save spans, and spans
// inside the substrates are not this benchmark's to add.
type timedRunner struct {
	job.Runner
	mu   *sync.Mutex
	runs map[string][2]int64
}

func (r *timedRunner) Run(ctx context.Context, spec job.Spec, prog *obs.Progress) (job.Result, error) {
	env := job.EnvFrom(ctx)
	env.Obs.Tracer = nil
	start := time.Now().UnixNano()
	res, err := r.Runner.Run(job.WithEnv(ctx, env), spec, prog)
	end := time.Now().UnixNano()
	r.mu.Lock()
	r.runs[spec.Name] = [2]int64{start, end}
	r.mu.Unlock()
	return res, err
}

// serverNice is the niceness the server runs at. Client and server
// share the machine's CPUs; when both want one, the client must get it,
// or its lateness is counted against the server.
const serverNice = 5

// yieldToClient renices every thread of this process to serverNice.
// Niceness is per thread on Linux and a new thread inherits its
// creator's, so every thread the runtime starts later inherits it too.
func yieldToClient() error {
	tasks, err := os.ReadDir("/proc/self/task")
	if err != nil {
		return err
	}
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			continue
		}
		if err := syscall.Setpriority(syscall.PRIO_PROCESS, tid, serverNice); err != nil {
			return fmt.Errorf("renice thread %d: %w", tid, err)
		}
	}
	return nil
}

// serveRole is the job server process: peachyd's manager and service
// on an ephemeral loopback port, until SIGTERM.
func serveRole() error {
	if err := yieldToClient(); err != nil {
		return err
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	traced := os.Getenv("PEACHYBENCH_TRACE") == "1"
	sink := obs.Sink{Metrics: obs.NewRegistry(), Log: obs.NewLogger()}
	epoch := time.Now()
	var mu sync.Mutex
	runs := map[string][2]int64{}
	if traced {
		sink.Tracer = obs.NewTracer(obs.ClockFunc(func() time.Duration { return time.Since(epoch) }))
	}
	var opts []job.Option
	for kind, r := range runners.Defaults() {
		if traced {
			r = &timedRunner{Runner: r, mu: &mu, runs: runs}
		}
		opts = append(opts, job.WithRunner(kind, r))
	}
	opts = append(opts,
		job.WithExecutors(serverExecutors),
		job.WithQueueDepth(256),
		job.WithTenantQuota(32),
		job.WithDefaultCheckpointEvery(25),
		job.WithManagerObs(sink),
	)
	if dir := os.Getenv("PEACHYBENCH_STATE"); dir != "" {
		opts = append(opts, job.WithStateDir(dir))
	}
	mgr, err := job.NewManager(opts...)
	if err != nil {
		return err
	}
	svc, err := job.StartService(job.ServiceConfig{Manager: mgr, APIAddr: "127.0.0.1:0", Obs: &sink})
	if err != nil {
		return err
	}
	fmt.Printf("listening %s\n", svc.Addr())
	<-sig
	if err := svc.Close(); err != nil {
		return err
	}
	rep := serverReport{Proc: sampleProc()}
	if traced {
		mu.Lock()
		rep.Runs = runs
		mu.Unlock()
		for _, s := range sink.Tracer.Spans() {
			rep.Spans = append(rep.Spans, serverSpan{
				Process: sink.Tracer.ProcessName(s.Track.PID), TID: s.Track.TID,
				Thread: sink.Tracer.ThreadName(s.Track), Name: s.Name,
				Start: epoch.Add(s.Start).UnixNano(), Dur: int64(s.Dur), Args: s.Args,
			})
		}
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}
