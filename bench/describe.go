package main

// describe.go records what a number was measured on: the machine, the
// toolchain, the code (commit and non-test lines per internal package,
// so "same speed, less code" shows next to the timings) and the run's
// own settings.

import (
	"bufio"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
)

type descriptor struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// The run's wall-time readings, which are not gated: on a shared
	// host they move with the load of the host's other guests.
	Samples int     `json:"samples"` // operations the latency percentiles rest on
	P50MS   float64 `json:"p50_ms"`
	TailPct float64 `json:"tail_pct"` // the percentile tail_ms reports
	TailMS  float64 `json:"tail_ms"`
	RSSMB   float64 `json:"peak_rss_mb"`
	// CPUMS is cpu_ms_per_op before it is scaled by probeRefMS/ProbeMS.
	CPUMS   float64 `json:"unscaled_cpu_ms_per_op"`
	ProbeMS float64 `json:"probe_ms"`

	Valid   bool   `json:"valid"`
	Invalid string `json:"invalid,omitempty"` // why a run is not valid

	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	// FS is the filesystem type of the run's scratch directory, which
	// holds svc-durable's state directory.
	FS        string `json:"fs"`
	GoVersion string `json:"go_version"`
	Commit    string `json:"commit"`
	Dirty     bool   `json:"dirty"`

	LoC   map[string]int `json:"loc,omitempty"` // non-test Go lines per internal/* package
	Extra map[string]any `json:"extra,omitempty"`
}

// maxGenLagMS is the generator lateness past which an svc-mixed run's
// wall-time readings no longer measure the server: jobs went out late
// after their slots freed, so latencies timed from then blame the
// server for the client.
const maxGenLagMS = 10

func describe(w *workload, rc *runCtx, m *measurement) descriptor {
	d := descriptor{
		Workload: w.name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.traced(),
		Samples: len(m.lat), P50MS: percentile(m.lat, 50), TailPct: w.tailPct,
		TailMS: percentile(m.lat, w.tailPct), RSSMB: m.rssMB,
		CPUMS: m.cpuMS, ProbeMS: m.probeMS, Valid: true,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: cpuModel(), Kernel: kernel(), FS: fsType(rc.dir),
		GoVersion: runtime.Version(), Commit: "unknown",
		LoC: linesOfCode("internal"), Extra: m.extra,
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				d.Commit = s.Value
			case "vcs.modified":
				d.Dirty = s.Value == "true"
			}
		}
	}
	if lag, ok := m.extra["gen_lag_p99_ms"].(float64); ok && w.name == "svc-mixed" && lag > maxGenLagMS {
		d.Valid = false
		d.Invalid = fmt.Sprintf("generator lag p99 %.1f ms over %d ms", lag, maxGenLagMS)
	}
	return d
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func kernel() string {
	var u syscall.Utsname
	if syscall.Uname(&u) != nil {
		return "unknown"
	}
	var b strings.Builder
	for _, c := range u.Release {
		if c == 0 {
			break
		}
		b.WriteByte(byte(c))
	}
	return b.String()
}

// fsMagic names the statfs magic numbers of the filesystems a state
// directory is likely to sit on.
var fsMagic = map[int64]string{
	0xEF53:     "ext4",
	0x58465342: "xfs",
	0x9123683E: "btrfs",
	0x01021994: "tmpfs",
	0x794C7630: "overlayfs",
	0x65735546: "fuse",
	0x6969:     "nfs",
	0x2FC12FC1: "zfs",
}

func fsType(dir string) string {
	var st syscall.Statfs_t
	if syscall.Statfs(dir, &st) != nil {
		return "unknown"
	}
	if name, ok := fsMagic[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", st.Type)
}

// linesOfCode counts the lines of non-test Go files per package under
// root, keyed by the package's path below root; nil when root is
// missing.
func linesOfCode(root string) map[string]int {
	loc := map[string]int{}
	err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := e.Name()
		if e.IsDir() {
			if name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg, _ := filepath.Rel(root, filepath.Dir(path))
		loc[filepath.ToSlash(pkg)] += strings.Count(string(src), "\n")
		return nil
	})
	if err != nil {
		return nil
	}
	return loc
}
