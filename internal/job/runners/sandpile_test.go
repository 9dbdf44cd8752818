package runners

import (
	"context"
	"testing"

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
// it: Validate at submission, then Run.
func BenchmarkSandpileJob(b *testing.B) {
	for _, bc := range sandpileJobs {
		b.Run(bc.name, func(b *testing.B) {
			s := spec("sandpile", bc.params)
			var r Sandpile
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := r.Validate(s); err != nil {
					b.Fatal(err)
				}
				if _, err := r.Run(context.Background(), s, obs.NewProgress(nil)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
