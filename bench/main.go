// Command bench is the repository's end-to-end benchmark: the paths
// people actually run — the peachyd job service, ghost and word count
// across real worker processes, and the Time Warp planet simulation —
// driven from outside through their public APIs, with every output
// checked against an in-process or pinned reference.
//
// One run measures one workload and prints, as its last line, one JSON
// object with the keys correct, attempted, failed and metrics; the line
// before it describes the machine and the code. Untraced runs report
// the end-to-end metrics; --trace 1 reports the per-layer metrics and
// writes a Perfetto trace and a per-layer table under
// .bench_build/trace. Run it from the repository root:
//
//	bash bench/run.sh --workload planet-warp --seed 3 --seconds 10 --trace 0
//	bash bench/run.sh --workload all --seed 1 --repeat 5 --out runs.jsonl
//	bash bench/run.sh --compare parent.jsonl change.jsonl
//
// The job server, the fleet workers and the host-speed probe are this
// same binary, started again with PEACHYBENCH_ROLE set.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// roleEnv selects a self-exec'd role ("server", "worker" or "probe")
// instead of the measuring process. An environment variable rather than
// a flag, so the test binary can take the same roles in TestMain.
const roleEnv = "PEACHYBENCH_ROLE"

// outDir, relative to the working directory (the repository root),
// holds everything a run leaves behind.
const outDir = ".bench_build"

type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// endToEnd are the metrics every workload reports untraced; an
// operation is one job (svc-*), one ghost run plus one word count run
// (fleet) or one simulation (planet-*). Both are CPU time of the system
// under test, summed over its processes. On a shared host a run's wall
// time mostly measures its neighbours: under CPU contention the
// latencies rose by up to 90 % while CPU per operation moved by at
// most 17 %. Both are scaled by the probe (probe.go). The wall times
// are in the descriptor line and the traced run.
var endToEnd = []metricDef{
	{"cpu_ms_per_op", "ms", "lower"},
	{"setup_s", "s", "lower"},
}

// perLayer are the traced run's metrics. The first eight apply to
// every workload. The rest belong to one family of workloads and read 0
// on the others, which never enter that layer; shares are fractions of
// the mean operation latency.
var perLayer = []metricDef{
	{"traced_p50_ms", "ms", "lower"},
	{"traced_tail_ms", "ms", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"reference_ms", "ms", "lower"},
	{"gc_cpu_frac", "ratio", "lower"},
	{"alloc_mb_per_op", "MB", "lower"},
	{"gen_lag_p99_ms", "ms", "lower"},
	{"setup_wall_ms", "ms", "lower"},

	{"share.gen_lag", "ratio", "lower"},
	{"share.http_submit", "ratio", "lower"},
	{"share.queue_wait", "ratio", "lower"},
	{"share.runner", "ratio", "lower"},
	{"share.delivery", "ratio", "lower"},
	{"share.ckpt_save", "ratio", "lower"},
	{"poll.gets_per_job", "count", "lower"},
	{"ckpt.saves_per_job", "count", "lower"},
	{"ckpt.bytes_per_save", "B", "lower"},

	{"share.fleet_ghost", "ratio", "lower"},
	{"share.fleet_spawn", "ratio", "lower"},
	{"share.fleet_join", "ratio", "lower"},
	{"share.fleet_body", "ratio", "lower"},
	{"share.fleet_teardown", "ratio", "lower"},
	{"share.net_send", "ratio", "lower"},
	{"share.worker_handle", "ratio", "lower"},
	{"net.frames_per_op", "count", "lower"},
	{"net.bytes_per_op", "B", "lower"},
	{"ghost.rounds_per_op", "count", "lower"},
	{"ghost.bytes_per_round", "B", "lower"},
	{"mapreduce.shuffle_runs_per_op", "count", "lower"},
	{"mapreduce.retries_per_op", "count", "lower"},

	{"des.committed_per_op", "count", "lower"},
	{"des.rollbacks_per_op", "count", "lower"},
	{"des.rolled_back_per_op", "count", "lower"},
	{"des.antimessages_per_op", "count", "lower"},
	{"des.useful_ratio", "ratio", "higher"},
	{"des.events_per_s", "1/s", "higher"},
}

// workload is one set of inputs the benchmark runs. tailPct is fixed
// per workload, at a percentile a run's expected sample count leaves at
// least ten samples beyond, so a faster change does not shift the
// percentile its tail is read at. gated workloads are the ones
// BENCHMARK.json lists; an ungated one runs on request and with all,
// but its noise on shared hardware is wider than a regression gate may
// allow (see README.md).
type workload struct {
	name    string
	why     string
	tailPct float64
	gated   bool
	run     func(rc *runCtx) (*measurement, error)
}

var workloads = []*workload{
	{"svc-mixed", "peachyd in memory: 8 tenants, seeded six-kind job mix, closed loop of 8 jobs in flight; runners and HTTP dominate",
		99, true, runSvcMixed},
	{"svc-durable", "peachyd with a state directory: same traffic, every job transition fsyncs the journal under the manager lock",
		95, false, runSvcDurable},
	{"fleet", "ghost then word count, each over 2 self-exec worker processes on a unix socket; net framing and shipping dominate",
		90, true, runFleet},
	{"planet-seq", "planet Time Warp scenario on the sequential kernel (workers=1): no optimism, the baseline warp is priced against",
		99, true, runPlanetSeq},
	{"planet-warp", "planet Time Warp scenario at workers=2: speculation, rollback, anti-messages and GVT on 2 vCPUs",
		95, true, runPlanetWarp},
}

func lookup(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// runCtx is what one workload run is given.
type runCtx struct {
	seed    int64
	seconds float64
	dir     string      // scratch directory for sockets and state, removed afterwards
	tracer  *obs.Tracer // nil on untraced runs
	self    string      // executable to start for the server and worker roles
}

func (rc *runCtx) traced() bool { return rc.tracer != nil }

// measurement is what a workload run collects; report turns it into
// the printed metrics.
type measurement struct {
	attempted, failed int
	mismatches        int       // outputs that differed from their reference
	lat               []float64 // latency of each measured operation, ms
	cpuMS             float64   // CPU time of the system under test per operation
	probeMS           float64   // the probe's median kernel CPU time over the run
	setupCPU          []float64 // CPU time of each set-up the run performed, seconds
	setupWall         []float64 // wall time of the same set-ups, seconds
	rssMB             float64
	layers            map[string]metricValue // traced runs only
	extra             map[string]any         // workload-specific descriptor fields
}

func (m *measurement) layer(name, unit string, v float64) {
	if m.layers == nil {
		m.layers = map[string]metricValue{}
	}
	m.layers[name] = metricValue{Value: v, Unit: unit}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of a run's output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as the repeat and compare modes store it.
type record struct {
	Descriptor descriptor `json:"descriptor"`
	Result     result     `json:"result"`
}

func main() {
	if role := os.Getenv(roleEnv); role != "" {
		if err := runRole(role); err != nil {
			fmt.Fprintf(os.Stderr, "bench %s: %v\n", role, err)
			os.Exit(1)
		}
		return
	}
	var (
		name    = flag.String("workload", "", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 25, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics and writes a Perfetto trace to "+outDir+"/trace")
		repeat  = flag.Int("repeat", 1, "runs per workload, each in a fresh child process on seeds seed, seed+1, ...")
		out     = flag.String("out", "", "append each child run's record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two record files given as arguments: parent change")
	)
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(), "usage: bench --workload NAME|all [flags]\n       bench --compare parent.jsonl change.jsonl\nworkloads:\n")
		for _, w := range workloads {
			fmt.Fprintf(flag.CommandLine.Output(), "  %-16s %s\n", w.name, w.why)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			flag.Usage()
			os.Exit(2)
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1), "BENCHMARK.json", os.Stdout))
	}
	if *trace != 0 && *trace != 1 {
		fatalf("--trace must be 0 or 1")
	}
	if *seconds <= 0 {
		fatalf("--seconds must be positive")
	}
	if *name == "all" || *repeat > 1 {
		names := []string{*name}
		if *name == "all" {
			names = nil
			for _, w := range workloads {
				names = append(names, w.name)
			}
		}
		for _, n := range names {
			if lookup(n) == nil {
				fatalf("unknown workload %q", n)
			}
		}
		os.Exit(runChildren(names, *seed, max(*repeat, 1), *seconds, *trace == 1, *out))
	}
	w := lookup(*name)
	if w == nil {
		flag.Usage()
		os.Exit(2)
	}
	rec, err := runOne(w, *seed, *seconds, *trace == 1, outDir)
	if err != nil {
		fatalf("%s: %v", w.name, err)
	}
	if err := printRecord(os.Stdout, rec); err != nil {
		fatalf("%v", err)
	}
	if !rec.Result.Correct {
		os.Exit(1)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(1)
}

func runRole(role string) error {
	switch role {
	case "server":
		return serveRole()
	case "worker":
		return workerRole()
	case "probe":
		return probeRole()
	}
	return fmt.Errorf("unknown role %q", role)
}

// runOne measures one workload in this process. base is the directory
// for scratch files and traces.
func runOne(w *workload, seed int64, seconds float64, traced bool, base string) (record, error) {
	self, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	rc := &runCtx{
		seed: seed, seconds: seconds, self: self,
		dir: filepath.Join(base, "run", fmt.Sprintf("%s-%d", w.name, os.Getpid())),
	}
	if err := os.MkdirAll(rc.dir, 0o755); err != nil {
		return record{}, err
	}
	defer os.RemoveAll(rc.dir)
	if traced {
		rc.tracer = obs.NewTracer(nil)
	}
	pr, err := startProbe(self)
	if err != nil {
		return record{}, err
	}
	m, err := w.run(rc)
	probeMS, perr := pr.stop()
	if err != nil {
		return record{}, err
	}
	if perr != nil {
		return record{}, perr
	}
	m.probeMS = probeMS
	if len(m.lat) == 0 {
		return record{}, errors.New("no operation completed")
	}
	if traced {
		_, setupWall, _ := quartiles(m.setupWall)
		m.layer("traced_p50_ms", "ms", percentile(m.lat, 50))
		m.layer("traced_tail_ms", "ms", percentile(m.lat, w.tailPct))
		m.layer("peak_rss_mb", "MB", m.rssMB)
		m.layer("setup_wall_ms", "ms", 1000*setupWall)
	}
	rec := record{
		Descriptor: describe(w, rc, m),
		Result:     report(m, traced),
	}
	if traced {
		if err := writeTrace(base, w.name, rc.tracer, m); err != nil {
			return record{}, err
		}
	}
	for name, v := range rec.Result.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return record{}, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	return rec, nil
}

// report selects the metrics a run prints: the end-to-end set, or on a
// traced run the per-layer set.
func report(m *measurement, traced bool) result {
	res := result{
		Correct:   m.mismatches == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   map[string]metricValue{},
	}
	if traced {
		for _, d := range perLayer {
			res.Metrics[d.Name] = metricValue{Value: m.layers[d.Name].Value, Unit: d.Unit}
		}
		return res
	}
	_, setup, _ := quartiles(m.setupCPU)
	speed := probeRefMS / m.probeMS
	vals := map[string]float64{
		"cpu_ms_per_op": m.cpuMS * speed,
		"setup_s":       setup * speed,
	}
	for _, d := range endToEnd {
		res.Metrics[d.Name] = metricValue{Value: vals[d.Name], Unit: d.Unit}
	}
	return res
}

// writeTrace saves the run's Perfetto trace and its full per-layer
// table, which also carries layer metrics that exist only for this
// workload's family.
func writeTrace(base, name string, tr *obs.Tracer, m *measurement) error {
	dir := filepath.Join(base, "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := tr.SaveChrome(filepath.Join(dir, name+".trace.json")); err != nil {
		return err
	}
	table, err := json.MarshalIndent(m.layers, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, name+".layers.json")
	fmt.Fprintf(os.Stderr, "bench: %s: trace and per-layer table in %s\n", name, dir)
	return os.WriteFile(path, append(table, '\n'), 0o644)
}

func printRecord(w io.Writer, rec record) error {
	d, err := json.Marshal(map[string]descriptor{"descriptor": rec.Descriptor})
	if err != nil {
		return err
	}
	r, err := json.Marshal(rec.Result)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", d, r)
	return err
}

// runChildren runs each named workload repeat times, each run in a
// fresh child process, interleaving workloads so slow drift of the
// machine spreads across all of them. It prints every metric's median
// and quartiles and returns the exit code: 1 if any run failed an
// oracle, lost an operation or crashed.
func runChildren(names []string, seed int64, repeat int, seconds float64, traced bool, outPath string) int {
	self, err := os.Executable()
	if err != nil {
		fatalf("%v", err)
	}
	var out io.Writer = io.Discard
	if outPath != "" {
		f, err := os.OpenFile(outPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fatalf("%v", err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatalf("%v", err)
			}
		}()
		out = f
	}
	code := 0
	byWorkload := map[string][]record{}
	for r := 0; r < repeat; r++ {
		for _, name := range names {
			s := seed + int64(r)
			rec, err := runChild(self, name, s, seconds, traced)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s seed %d: %v\n", name, s, err)
				code = 1
				continue
			}
			if !rec.Result.Correct || rec.Result.Failed > 0 {
				code = 1
			}
			byWorkload[name] = append(byWorkload[name], rec)
			line, err := json.Marshal(rec)
			if err != nil {
				fatalf("%v", err)
			}
			if _, err := fmt.Fprintf(out, "%s\n", line); err != nil {
				fatalf("%v", err)
			}
		}
	}
	for _, name := range names {
		printSummary(os.Stdout, name, byWorkload[name], traced)
	}
	return code
}

func runChild(self, name string, seed int64, seconds float64, traced bool) (record, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.Command(self, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", tr)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.Output()
	var rec record
	lines := strings.Split(strings.TrimSpace(string(stdout)), "\n")
	if len(lines) < 2 {
		if err == nil {
			err = errors.New("no result printed")
		}
		return rec, err
	}
	var d map[string]descriptor
	if jerr := json.Unmarshal([]byte(lines[len(lines)-2]), &d); jerr != nil {
		return rec, fmt.Errorf("descriptor line: %w", jerr)
	}
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rec.Result); jerr != nil {
		return rec, fmt.Errorf("result line: %w", jerr)
	}
	rec.Descriptor = d["descriptor"]
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && !rec.Result.Correct) {
		return rec, err // a crash, not an oracle failure the record already shows
	}
	return rec, nil
}

// printSummary prints one workload's metrics over its runs: median and
// quartiles (as Python's statistics.quantiles gives them), and the
// fail ratio over every operation attempted.
func printSummary(w io.Writer, name string, recs []record, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	attempted, failed, wrong := 0, 0, 0
	for _, r := range recs {
		attempted += r.Result.Attempted
		failed += r.Result.Failed
		if !r.Result.Correct {
			wrong++
		}
	}
	fmt.Fprintf(w, "%s: %d runs, %d operations attempted, fail_ratio %.4g, %d runs with wrong output\n",
		name, len(recs), attempted, ratio(float64(failed), float64(attempted)), wrong)
	for _, d := range defs {
		var vals []float64
		for _, r := range recs {
			if v, ok := r.Result.Metrics[d.Name]; ok {
				vals = append(vals, v.Value)
			}
		}
		if len(vals) == 0 {
			continue
		}
		q1, med, q3 := quartiles(vals)
		fmt.Fprintf(w, "  %-30s %-6s median %-12.5g q1 %-12.5g q3 %-12.5g spread %.1f%%\n",
			d.Name, d.Unit, med, q1, q3, 100*ratio(q3-q1, med))
	}
}

// readRecords loads a JSON-lines file of run records.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}
