package main

// probe.go measures how fast the host runs code while a workload runs.
// On a shared host the same work's CPU time drifts by 10-30 % over
// minutes, as other guests load the cores and caches this guest's vCPUs
// share; steal-time accounting removes only the time the host ran
// someone else, not the time it ran this guest slower. Every workload
// slows together, so a fixed kernel run alongside tracks the drift: in
// calibration, dividing a workload's CPU per operation by the kernel's
// CPU time cut svc-mixed's run-to-run quartile spread from 14 % to 6 %.
//
// The probe is a process of its own, so it shares neither heap nor
// garbage collector with the system it prices, and it runs its kernel
// once every probeGap, a few percent of one CPU.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// probeRefMS is the kernel's median CPU time on the calibration host
// (README.md). The gated CPU metrics are scaled by probeRefMS over the
// run's own median, so they read in CPU milliseconds at that host's
// speed.
const probeRefMS = 2.9

const probeGap = 50 * time.Millisecond

// probeKernel is a fixed mix of what the workloads spend their time on:
// hashing into a map, allocating and chasing pointers, and sorting.
func probeKernel() int {
	x := uint64(12345)
	counts := map[string]int{}
	xs := make([]int, 20000)
	type node struct {
		next *node
		v    int
	}
	var head *node
	for i := range xs {
		x = x*6364136223846793005 + 1442695040888963407
		xs[i] = int(x >> 33)
		if i%4 == 0 {
			counts[strconv.Itoa(xs[i]%5000)] += i
			head = &node{head, xs[i]}
		}
	}
	slices.Sort(xs)
	sum := 0
	for n := head; n != nil; n = n.next {
		sum += n.v
	}
	return sum + len(counts) + xs[len(xs)/2]
}

// probe is a running probe process.
type probe struct {
	cmd *exec.Cmd
	out bytes.Buffer
}

func startProbe(self string) (*probe, error) {
	p := &probe{cmd: exec.Command(self)}
	p.cmd.Env = append(os.Environ(), roleEnv+"=probe")
	p.cmd.Stdout = &p.out
	p.cmd.Stderr = os.Stderr
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	return p, nil
}

// stop ends the probe and returns its median kernel CPU time, ms.
func (p *probe) stop() (float64, error) {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		_ = p.cmd.Process.Kill() // best effort: the probe may be exiting
		_ = p.cmd.Wait()
		return 0, fmt.Errorf("probe: %w", err)
	}
	if err := p.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("probe: %w", err)
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(p.out.String()), 64)
	if err != nil || v <= 0 {
		return 0, fmt.Errorf("probe printed %q", p.out.String())
	}
	return v, nil
}

// probeSink keeps the kernel's result live.
var probeSink int

// probeRole is the probe process: the kernel at start and then every
// probeGap until SIGTERM, when it prints the kernel's median CPU time.
func probeRole() error {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	tick := time.NewTicker(probeGap)
	defer tick.Stop()
	var times []float64
	for {
		c0 := selfCPU()
		probeSink += probeKernel()
		times = append(times, ms(selfCPU()-c0))
		select {
		case <-sig:
			_, med, _ := quartiles(times)
			if med <= 0 {
				return errors.New("no CPU time measured")
			}
			_, err := fmt.Println(med)
			return err
		case <-tick.C:
		}
	}
}
