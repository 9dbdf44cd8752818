package main

// fleet.go is the real-process fleet mode: instead of kill–resume over
// durable checkpoints, the driver runs a coordinator in-process, spawns
// its workers as subprocesses of itself joined over a socket transport,
// SIGKILLs some of them at seeded points of the run's progress, and
// asserts the final state is byte-identical to a clean in-process run
// of the same workload. This is the end-to-end proof for internal/net:
// leases detect the deaths, the supervisor respawns the ranks, and the
// applications' recovery (ghost rolls every rank back to the last
// committed window over fresh peer links, word count re-dispatches
// tasks) keeps the computation exact.

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ghost"
	"repro/internal/mapreduce"
	pnet "repro/internal/net"
	"repro/internal/obs"
	"repro/internal/sandpile"
)

var fleetWorkloads = []string{"ghost", "ghost2d", "wordcount"}

// fleetProcs tracks the live worker subprocess per rank so the killer
// can SIGKILL one and the cleanup can reap the rest.
type fleetProcs struct {
	mu    sync.Mutex
	procs map[int]fleetProc
}

// fleetProc is one worker subprocess; done closes once it has exited.
type fleetProc struct {
	cmd  *exec.Cmd
	done chan struct{}
}

func (f *fleetProcs) put(rank int, p fleetProc) {
	f.mu.Lock()
	f.procs[rank] = p
	f.mu.Unlock()
}

// kill SIGKILLs the rank's current process; reports whether a process
// was there to kill.
func (f *fleetProcs) kill(rank int) bool {
	f.mu.Lock()
	p, ok := f.procs[rank]
	f.mu.Unlock()
	return ok && p.cmd.Process.Kill() == nil
}

// reap gives every worker up to grace in all to finish the clean exit
// the run's stop message started, which removes its peer socket, and
// SIGKILLs the ones still running after that.
func (f *fleetProcs) reap(grace time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	timer := time.NewTimer(grace)
	defer timer.Stop()
	expired := false
	for _, p := range f.procs {
		if !expired {
			select {
			case <-p.done:
				continue
			case <-timer.C:
				expired = true
			}
		}
		_ = p.cmd.Process.Kill()
	}
}

// fleetSpawn builds the FleetConfig.Spawn hook: self-exec a worker
// subprocess pointed at the coordinator's address.
func fleetSpawn(self, workload, scheme string, procs *fleetProcs, quick bool) func(rank int, addr string) error {
	return func(rank int, addr string) error {
		args := []string{
			"-fleet-worker", workload,
			"-transport", scheme,
			"-join", addr,
			"-rank", strconv.Itoa(rank),
		}
		if quick {
			args = append(args, "-quick")
		}
		cmd := exec.Command(self, args...)
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			return err
		}
		done := make(chan struct{})
		procs.put(rank, fleetProc{cmd: cmd, done: done})
		go func() {
			_ = cmd.Wait() // reap; SIGKILLed workers must not linger as zombies
			close(done)
		}()
		return nil
	}
}

// fleetListen picks a listen address for the scheme: a socket file in
// the scratch dir for unix, loopback with an ephemeral port for tcp.
func fleetListen(scheme, scratch, wl string) string {
	if scheme == "unix" {
		return filepath.Join(scratch, wl+".sock")
	}
	return "127.0.0.1:0"
}

// startKiller delivers up to kills SIGKILLs to worker ranks (skipping
// rank 0 so every workload keeps at least one stable rank) as the run
// progresses: the k-th lands once done() reaches the k-th of kills
// seeded fractions in [10%, 90%) of total, the in-process reference's
// amount of work. Following progress rather than the wall clock keeps
// every kill inside the run however fast it goes. Returns the
// delivered counter.
func startKiller(procs *fleetProcs, workers, kills int, done func() float64, total float64,
	rng *rand.Rand, stop <-chan struct{}, log *obs.Logger) *atomic.Int64 {
	delivered := &atomic.Int64{}
	at := make([]float64, kills)
	victims := make([]int, kills)
	for k := range at {
		at[k] = (0.1 + 0.8*rng.Float64()) * total
		victims[k] = 1 + k%(workers-1)
	}
	slices.Sort(at)
	go func() {
		tick := time.NewTicker(500 * time.Microsecond)
		defer tick.Stop()
		for k := 0; k < kills; k++ {
			for done() < at[k] {
				select {
				case <-stop:
					return
				case <-tick.C:
				}
			}
			if procs.kill(victims[k]) {
				delivered.Add(1)
				log.Event(obs.LevelWarn, "chaos", "fleet worker SIGKILLed",
					obs.Arg{Key: "rank", Value: int64(victims[k])},
					obs.Arg{Key: "kill", Value: delivered.Load()},
					obs.Arg{Key: "progress", Value: int64(done())})
			}
		}
	}()
	return delivered
}

// progressOf reads one field of one stage of the sink's live progress.
// The field is zeroed first, so a previous run's value cannot count.
func progressOf(p *obs.Progress, stage, field string) func() float64 {
	p.Update(stage, obs.F(field, 0))
	return func() float64 { return p.Snapshot()[stage].Fields[field] }
}

// fleetSoak runs one fleet workload against real SIGKILLed worker
// subprocesses and compares its state bytes with the clean in-process
// run.
func fleetSoak(self, wl, scratch, scheme string, kills int,
	quick bool, rng *rand.Rand, log *obs.Logger, sink obs.Sink) error {
	tr, err := pnet.New(scheme)
	if err != nil {
		return err
	}
	procs := &fleetProcs{procs: map[int]fleetProc{}}
	defer procs.reap(time.Second)
	stop := make(chan struct{})
	defer close(stop)

	workers := 3
	if wl == "ghost2d" {
		workers = 4
	}
	fc := &pnet.FleetConfig{
		Transport: tr,
		Listen:    fleetListen(scheme, scratch, wl),
		Lease:     time.Second,
		Spawn:     fleetSpawn(self, fleetWorkerName(wl), scheme, procs, quick),
	}
	var delivered *atomic.Int64
	var ref, got []byte
	switch wl {
	case "ghost", "ghost2d":
		size, grains := 144, uint32(200000)
		if quick {
			size, grains = 96, 80000
		}
		opts := []ghost.Option{ghost.WithRanks(3), ghost.WithWidth(2)}
		if wl == "ghost2d" {
			opts = []ghost.Option{ghost.WithProcessGrid(2, 2), ghost.WithWidth(2)}
		}
		refG := sandpile.Center(grains).Build(size, size, nil)
		refRep, err := ghost.New(refG, opts...).Run()
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref = sandpileState(refRep.Iterations, refRep.Topples, refRep.Absorbed, refG)
		delivered = startKiller(procs, workers, kills, progressOf(sink.Progress, "ghost", "round"),
			float64(refRep.Exchanges), rng, stop, log)

		g := sandpile.Center(grains).Build(size, size, nil)
		rep, err := ghost.New(g, append(opts, ghost.WithFleet(fc), ghost.WithObs(sink))...).Run()
		if err != nil {
			return fmt.Errorf("fleet run: %w", err)
		}
		got = sandpileState(rep.Iterations, rep.Topples, rep.Absorbed, g)
		log.Event(obs.LevelInfo, "chaos", "fleet run finished "+wl,
			obs.Arg{Key: "kills", Value: delivered.Load()},
			obs.Arg{Key: "recoveries", Value: int64(rep.Recoveries)})
		if delivered.Load() > 0 && rep.Recoveries == 0 {
			return fmt.Errorf("%d SIGKILLs delivered but the run saw no recoveries", delivered.Load())
		}

	case "wordcount":
		lines := 60000
		if quick {
			lines = 20000
		}
		corpus := chaosCorpus(lines)
		job := fleetWordCountJob()
		refOut, refStats, err := job.Run(corpus)
		if err != nil {
			return fmt.Errorf("in-process reference: %w", err)
		}
		ref = []byte(strings.Join(refOut, "\n"))
		delivered = startKiller(procs, workers, kills, progressOf(sink.Progress, "mapreduce", "map_done"),
			float64(refStats.MapTasks), rng, stop, log)

		fc.Workers = workers
		fleetJob := fleetWordCountJob()
		fleetJob.Config.Obs = sink
		out, stats, err := fleetJob.RunFleet(context.Background(), corpus, fc, chaosWire())
		if err != nil {
			return fmt.Errorf("fleet run: %w", err)
		}
		got = []byte(strings.Join(out, "\n"))
		log.Event(obs.LevelInfo, "chaos", "fleet run finished "+wl,
			obs.Arg{Key: "kills", Value: delivered.Load()},
			obs.Arg{Key: "task_retries", Value: int64(stats.TaskRetries)})

	default:
		return fmt.Errorf("unknown fleet workload %q", wl)
	}

	if !bytes.Equal(got, ref) {
		return fmt.Errorf("fleet state after %d kills differs from the in-process run (%d vs %d bytes)",
			delivered.Load(), len(got), len(ref))
	}
	fmt.Printf("chaos: fleet-%s: %d kills delivered over %s, state identical (%d bytes)\n",
		wl, delivered.Load(), scheme, len(got))
	return nil
}

// fleetWorkerName maps a driver workload to the worker-side program:
// 1-D and 2-D ghost share one worker (geometry travels in the seed).
func fleetWorkerName(wl string) string {
	if wl == "ghost2d" {
		return "ghost"
	}
	return wl
}

// runFleetWorkerMode is the subprocess side: join the coordinator and
// serve tasks until stopped (or until the coordinator goes away for
// good).
func runFleetWorkerMode(workload, scheme, join string, rank int) error {
	tr, err := pnet.New(scheme)
	if err != nil {
		return err
	}
	cfg := pnet.WorkerConfig{
		Transport:       tr,
		Join:            join,
		Rank:            rank,
		Backoff:         pnet.Backoff{Base: 25 * time.Millisecond, Max: time.Second, Seed: int64(rank)},
		MaxDialAttempts: 200,
	}
	switch workload {
	case "ghost":
		return ghost.FleetWorker(context.Background(), cfg)
	case "wordcount":
		return fleetWordCountJob().FleetWorker(context.Background(), cfg, chaosWire())
	}
	return fmt.Errorf("unknown fleet worker workload %q", workload)
}

// fleetWordCountJob is the wordcount used in fleet mode: identical
// map/reduce logic to the kill–resume workload, no spill (fleet
// durability is re-dispatch, not disk).
func fleetWordCountJob() *mapreduce.Job[string, string, int, string] {
	return wordCountJob(nil)
}

// chaosWire moves the fleet wordcount's records and pairs across the
// socket: strings in, (string, int) pairs shuffled, "word n" lines out.
func chaosWire() *mapreduce.Wire[string, string, int, string] {
	return &mapreduce.Wire[string, string, int, string]{
		AppendIn: mapreduce.AppendString, ReadIn: mapreduce.ReadString,
		AppendKey: mapreduce.AppendString, ReadKey: mapreduce.ReadString,
		AppendVal: mapreduce.AppendInt, ReadVal: mapreduce.ReadInt,
		AppendOut: mapreduce.AppendString, ReadOut: mapreduce.ReadString,
	}
}
