package runners

import (
	"context"
	"syscall"
	"testing"
	"time"

	"repro/internal/job"
	"repro/internal/obs"
)

// sandpileJobs are the three sandpile classes of the svc-mixed
// benchmark workload: the centre pile on the default seq-async
// variant, the sparse pile on lazy-sync, and the two-rank ghost run.
var sandpileJobs = []struct{ name, params string }{
	{"center64", `{"size":64,"config":"center","grains":4000}`},
	{"sparse256", `{"size":256,"config":"sparse","variant":"lazy-sync","maxIters":200,"seed":1}`},
	{"ghost96", `{"size":96,"config":"center","grains":20000,"ranks":2,"ghostWidth":2}`},
}

// BenchmarkSandpileJob prices one sandpile job as the job server runs
// it: Validate at submission, then Run. Each class runs alone, and
// under pair/ as GOMAXPROCS jobs at once through b.RunParallel: two on
// a 2-vCPU guest, as svc-mixed's two executors run them (-cpu 2 pins
// two elsewhere). lazy-sync and the ghost run use two workers each, so
// a lone job finds idle cores that svc-mixed never leaves it, and
// ns/op misprices both: cpu-ms/op is the process CPU time per job.
func BenchmarkSandpileJob(b *testing.B) {
	for _, bc := range sandpileJobs {
		b.Run(bc.name, func(b *testing.B) {
			s := spec("sandpile", bc.params)
			defer reportCPU(b)()
			for i := 0; i < b.N; i++ {
				if err := runSandpileJob(s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("pair", func(b *testing.B) {
		for _, bc := range sandpileJobs {
			b.Run(bc.name, func(b *testing.B) {
				s := spec("sandpile", bc.params)
				defer reportCPU(b)()
				b.RunParallel(func(pb *testing.PB) {
					for pb.Next() {
						if err := runSandpileJob(s); err != nil {
							b.Error(err)
							return
						}
					}
				})
			})
		}
	})
}

// runSandpileJob validates and runs one job spec.
func runSandpileJob(s job.Spec) error {
	var r Sandpile
	if err := r.Validate(s); err != nil {
		return err
	}
	_, err := r.Run(context.Background(), s, obs.NewProgress(nil))
	return err
}

// reportCPU turns on allocation reporting and returns a func that
// reports the process CPU time (user + system) per op since the call.
func reportCPU(b *testing.B) func() {
	b.ReportAllocs()
	start := cpuTime()
	return func() {
		b.ReportMetric(float64(cpuTime()-start)/float64(time.Millisecond)/float64(b.N), "cpu-ms/op")
	}
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
