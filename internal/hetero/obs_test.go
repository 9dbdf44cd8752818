package hetero

import (
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/obs"
)

func TestRunReportsObs(t *testing.T) {
	sink := obs.Sink{Metrics: obs.NewRegistry(), Tracer: obs.NewTracer(nil)}
	g := grid.New(64, 64)
	g.Set(32, 32, 20000)
	rep := run(g, Params{
		TileH: 16, TileW: 16, CPUWorkers: 2,
		Device: DeviceProfile{Workers: 2, LaunchOverhead: 100 * time.Microsecond},
		Adapt:  true,
		Obs:    sink,
	})
	s := sink.Metrics.Snapshot()
	if s.Counters["hetero.tiles.device"] != int64(rep.DeviceTiles) {
		t.Fatalf("device tile counter = %d, report = %d",
			s.Counters["hetero.tiles.device"], rep.DeviceTiles)
	}
	if s.Counters["hetero.tiles.cpu"] != int64(rep.CPUTiles) || rep.CPUTiles == 0 {
		t.Fatalf("cpu tile counter = %d, report = %d",
			s.Counters["hetero.tiles.cpu"], rep.CPUTiles)
	}
	if f := s.Gauges["hetero.fraction"]; f <= 0 || f >= 1 {
		t.Fatalf("fraction gauge = %v, want in (0,1)", f)
	}
	var devBatches, cpuBatches int
	for _, sp := range sink.Tracer.Spans() {
		switch sink.Tracer.ProcessName(sp.Track.PID) {
		case "hetero-device":
			devBatches++
		case "hetero-cpu":
			cpuBatches++
		}
	}
	if cpuBatches != rep.Iterations {
		t.Fatalf("cpu batch spans = %d, want one per iteration (%d)", cpuBatches, rep.Iterations)
	}
	if rep.DeviceTiles > 0 && devBatches == 0 {
		t.Fatal("device computed tiles but produced no batch spans")
	}
}
