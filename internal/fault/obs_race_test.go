package fault

import (
	"sync"
	"testing"

	"repro/internal/obs"
)

// TestSnapshotWhileInjectingRace hammers the fault.* counters from
// concurrent injector goroutines while another goroutine repeatedly
// snapshots the registry — the snapshot-while-incrementing pattern
// the obs layer promises is safe. Run under -race; the assertions
// additionally check snapshots are internally consistent (monotone
// fault.injected across successive snapshots).
func TestSnapshotWhileInjectingRace(t *testing.T) {
	reg := obs.NewRegistry()
	in := NewInjector(&Plan{
		Seed: 99,
		Drop: 0.2, Dup: 0.2, DelayProb: 0.2,
		HostFail: 0.5, TaskFail: 0.5,
	}, obs.Sink{Metrics: reg})

	stop := make(chan struct{})
	var snaps sync.WaitGroup
	snaps.Add(1)
	go func() {
		defer snaps.Done()
		var prev int64 = -1
		for {
			select {
			case <-stop:
				return
			default:
			}
			s := reg.Snapshot()
			cur := s.Counters["fault.injected"]
			if cur < prev {
				t.Errorf("fault.injected went backwards: %d -> %d", prev, cur)
				return
			}
			prev = cur
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				in.MessageFate(w, w+1, uint64(i))
				if frac, fails := in.HostFailureDecision("local", i, w); fails {
					in.NoteHostFailure("local", i, w, frac)
				}
				in.TaskFails("map", w, i)
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	snaps.Wait()

	s := reg.Snapshot()
	sum := s.Counters["fault.msg.dropped"] + s.Counters["fault.msg.duplicated"] +
		s.Counters["fault.msg.delayed"] + s.Counters["fault.host.failures"] +
		s.Counters["fault.task.failures"]
	if got := s.Counters["fault.injected"]; got != sum {
		t.Fatalf("fault.injected = %d, want sum of per-kind counters %d", got, sum)
	}
	if s.Counters["fault.msg.dropped"] == 0 || s.Counters["fault.host.failures"] == 0 {
		t.Fatal("expected faults to fire at these rates")
	}
}
