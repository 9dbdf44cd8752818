package mapreduce

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	pnet "repro/internal/net"
)

// fleetCorpus is large enough that map tasks are in flight while kills
// land, and deterministic so every run agrees.
func fleetCorpus(lines int) []string {
	words := []string{"grain", "pile", "topple", "halo", "rank", "lease", "frame", "rejoin"}
	out := make([]string, lines)
	for i := range out {
		a := words[i%len(words)]
		b := words[(i*7+3)%len(words)]
		c := words[(i*13+5)%len(words)]
		out[i] = a + " " + b + " " + c + " " + a
	}
	return out
}

// fleetRuns numbers fleet runs, so each listens on its own chan address.
var fleetRuns atomic.Int64

// runFleetWordCount runs the corpus over a goroutine fleet on the chan
// transport and returns outputs + stats. Each run listens on a fresh
// address, and its workers have exited before it returns, so no worker
// of one run can join the next.
func runFleetWordCount(t *testing.T, cfg Config[string], lines []string,
	spawn func(ctx context.Context, addr string, wg *sync.WaitGroup)) ([]KV[string, int], Stats) {
	t.Helper()
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	defer wg.Wait()
	defer cancel()
	var once sync.Once
	fc := &pnet.FleetConfig{
		Transport:   tr,
		Listen:      fmt.Sprintf("mr-fleet-%s-%d", t.Name(), fleetRuns.Add(1)),
		Workers:     3,
		Lease:       300 * time.Millisecond,
		JoinTimeout: 10 * time.Second,
		Spawn: func(rank int, addr string) error {
			once.Do(func() { spawn(ctx, addr, &wg) })
			return nil
		},
	}
	out, stats, err := wordCountJob(cfg).RunFleet(ctx, lines, fc, StringIntWire())
	if err != nil {
		t.Fatalf("fleet run: %v", err)
	}
	return out, stats
}

// fleetWorkers launches n wordcount fleet workers as goroutines.
func fleetWorkers(tr pnet.Transport, cfg Config[string], n int) func(ctx context.Context, addr string, wg *sync.WaitGroup) {
	return func(ctx context.Context, addr string, wg *sync.WaitGroup) {
		for r := 0; r < n; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				wordCountJob(cfg).FleetWorker(ctx, pnet.WorkerConfig{
					Transport: tr, Join: addr, Rank: r,
					Backoff:         pnet.Backoff{Base: 5 * time.Millisecond, Max: 100 * time.Millisecond},
					MaxDialAttempts: 1000,
				}, StringIntWire())
			}(r)
		}
	}
}

// TestFleetWordCountMatchesRun pins the tentpole equality: the fleet
// run returns the exact output slice Run produces — same order, same
// values — and the shared stats agree.
func TestFleetWordCountMatchesRun(t *testing.T) {
	cfg := Config[string]{MapTasks: 4, ReduceTasks: 3}
	lines := fleetCorpus(200)
	want, wantStats, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := pnet.New("chan")
	got, stats := runFleetWordCount(t, cfg, lines, fleetWorkers(tr, cfg, 3))
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d outputs, Run produced %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if stats.MapTasks != wantStats.MapTasks || stats.ReduceTasks != wantStats.ReduceTasks ||
		stats.MapInputs != wantStats.MapInputs || stats.MapOutputs != wantStats.MapOutputs ||
		stats.ReduceGroups != wantStats.ReduceGroups || stats.Outputs != wantStats.Outputs ||
		stats.ShuffleRuns != wantStats.ShuffleRuns {
		t.Fatalf("fleet stats %+v != run stats %+v", stats, wantStats)
	}
}

// TestFleetWorkerDeathAndReassignment kills worker incarnations while
// tasks are in flight; re-dispatch must keep the output identical.
func TestFleetWorkerDeathAndReassignment(t *testing.T) {
	cfg := Config[string]{MapTasks: 12, ReduceTasks: 4}
	lines := fleetCorpus(3000)
	want, _, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	tr, _ := pnet.New("chan")
	var kills atomic.Int64
	got, stats := runFleetWordCount(t, cfg, lines, func(ctx context.Context, addr string, wg *sync.WaitGroup) {
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for incarnation := 1; ctx.Err() == nil; incarnation++ {
					wctx, wcancel := context.WithCancel(ctx)
					if rank == 1 && incarnation <= 2 {
						go func(delay time.Duration) {
							time.Sleep(delay)
							kills.Add(1)
							wcancel()
						}(time.Duration(incarnation) * 2 * time.Millisecond)
					}
					wordCountJob(cfg).FleetWorker(wctx, pnet.WorkerConfig{
						Transport: tr, Join: addr, Rank: rank,
						Backoff:         pnet.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
						MaxDialAttempts: 1000,
					}, StringIntWire())
					wcancel()
					if rank != 1 || incarnation > 2 {
						return
					}
				}
			}(r)
		}
	})
	if len(got) != len(want) {
		t.Fatalf("fleet produced %d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
		}
	}
	if kills.Load() > 0 && stats.TaskRetries == 0 {
		// Kills can land between tasks; only a kill mid-task forces a
		// retry, so this is informational rather than fatal.
		t.Logf("killed %d incarnations without forcing a re-dispatch", kills.Load())
	}
}

// TestFleetAllWorkersLostFallsBackInline: once the supervisor gives up
// on every rank the coordinator must finish the job inline with
// identical output. In "before maps" nothing is spawned, so both
// phases run inline; in "after maps" every map task runs on a worker
// and each worker dies at its first reduce frame, so the inline reduce
// decodes the runs the workers sent.
func TestFleetAllWorkersLostFallsBackInline(t *testing.T) {
	cfg := Config[string]{MapTasks: 3, ReduceTasks: 2}
	lines := fleetCorpus(50)
	want, _, err := wordCountJob(cfg).Run(lines)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"before maps", "after maps"} {
		afterMaps := name == "after maps"
		t.Run(name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var wg sync.WaitGroup
			defer wg.Wait()
			var maps, kills atomic.Int64
			tr, _ := pnet.New("chan")
			fc := &pnet.FleetConfig{
				Transport:   tr,
				Listen:      fmt.Sprintf("mr-fleet-lost-%d", fleetRuns.Add(1)),
				Workers:     2,
				Lease:       200 * time.Millisecond,
				JoinTimeout: 30 * time.Millisecond,
				MaxRespawns: 2,
				Backoff:     pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
				Spawn:       func(rank int, addr string) error { return nil },
			}
			if afterMaps {
				fc.JoinTimeout = 200 * time.Millisecond
				var once sync.Once
				fc.Spawn = func(rank int, addr string) error {
					once.Do(func() {
						for r := range fc.Workers {
							wctx, kill := context.WithCancel(ctx)
							wt := &dieAtReduce{Transport: tr, maps: &maps, kill: func() { kills.Add(1); kill() }}
							wg.Add(1)
							go func() {
								defer wg.Done()
								wordCountJob(cfg).FleetWorker(wctx, pnet.WorkerConfig{
									Transport: wt, Join: addr, Rank: r,
									Backoff:         pnet.Backoff{Base: 2 * time.Millisecond, Max: 10 * time.Millisecond},
									MaxDialAttempts: 1000,
								}, StringIntWire())
							}()
						}
					})
					return nil
				}
			}
			got, stats, err := wordCountJob(cfg).RunFleet(ctx, lines, fc, StringIntWire())
			if err != nil {
				t.Fatalf("degraded fleet run: %v", err)
			}
			if afterMaps && (maps.Load() < int64(cfg.MapTasks) || kills.Load() != int64(fc.Workers)) {
				t.Fatalf("workers served %d map frames and died %d times; want every map task on a worker and every worker dead at a reduce frame",
					maps.Load(), kills.Load())
			}
			if len(got) != len(want) {
				t.Fatalf("inline fallback produced %d outputs, want %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("output[%d] = %+v, want %+v", i, got[i], want[i])
				}
			}
			if stats.ShuffleRuns == 0 {
				t.Fatal("the inline reduce merged no runs")
			}
		})
	}
}

// dieAtReduce is a worker's transport whose connection counts the map
// frames it delivers and kills the worker when a reduce frame arrives,
// before the worker sees it.
type dieAtReduce struct {
	pnet.Transport
	maps *atomic.Int64
	kill func()
}

func (d *dieAtReduce) Dial(addr string) (pnet.Conn, error) {
	c, err := d.Transport.Dial(addr)
	if err != nil {
		return nil, err
	}
	return &dieAtReduceConn{Conn: c, d: d}, nil
}

type dieAtReduceConn struct {
	pnet.Conn
	d *dieAtReduce
}

func (c *dieAtReduceConn) Recv(timeout time.Duration) (pnet.Msg, error) {
	m, err := c.Conn.Recv(timeout)
	switch {
	case err != nil:
	case m.Type == mrMap:
		c.d.maps.Add(1)
	case m.Type == mrReduce:
		c.d.kill()
		c.Conn.Close()
		return pnet.Msg{}, errors.New("test: worker killed at its first reduce frame")
	}
	return m, err
}

// TestFleetRejectsSingleProcessFeatures: fault injection, spilling and
// the reference shuffle are single-process concerns, and a worker builds
// runs for at most maxFleetPartitions partitions.
func TestFleetRejectsSingleProcessFeatures(t *testing.T) {
	tr, _ := pnet.New("chan")
	fc := &pnet.FleetConfig{Transport: tr, Listen: "mr-fleet-rej", Workers: 1}
	for name, cfg := range map[string]Config[string]{
		"faults":     {Faults: &fault.Plan{Seed: 1}},
		"reference":  {ReferenceShuffle: true},
		"external":   {MaxShuffleBytes: 1 << 20},
		"partitions": {ReduceTasks: maxFleetPartitions + 1},
	} {
		_, _, err := wordCountJob(cfg).RunFleet(context.Background(), fleetCorpus(4), fc, StringIntWire())
		if err == nil {
			t.Fatalf("%s: accepted in fleet mode", name)
		}
	}
}

// TestRunRoundTrip pins the wire codec for runs, including the
// recomputed prefixes.
func TestRunRoundTrip(t *testing.T) {
	c := StringIntWire().codec()
	kvs := []KV[string, int]{{"alpha", 1}, {"alpha", 2}, {"beta", 7}, {"longerkeythanprefix", 3}}
	r := makeRun(kvs)
	buf := c.appendRun(nil, &r)
	var got run[string, int]
	rest, err := c.readRun(&got, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if len(got.keys) != len(r.keys) || len(got.offs) != len(r.offs) || len(got.vals) != len(r.vals) {
		t.Fatalf("shape mismatch: %+v vs %+v", got, r)
	}
	for i := range r.keys {
		if got.keys[i] != r.keys[i] || got.prefs[i] != r.prefs[i] {
			t.Fatalf("key %d mismatch", i)
		}
	}
	for i := range r.vals {
		if got.vals[i] != r.vals[i] {
			t.Fatalf("val %d mismatch", i)
		}
	}
	// Empty run round-trips too.
	var empty run[string, int]
	rest, err = c.readRun(&empty, c.appendRun(nil, &run[string, int]{}))
	if err != nil || len(rest) != 0 || len(empty.keys) != 0 {
		t.Fatalf("empty run: %v %d %d", err, len(rest), len(empty.keys))
	}
}

// mapFrame encodes the coordinator's map frame for a split.
func mapFrame(task, nReduce int, split []string) []byte {
	buf := binary.LittleEndian.AppendUint32(nil, uint32(task))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(nReduce))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(split)))
	for _, rec := range split {
		buf = AppendString(buf, rec)
	}
	return buf
}

// FuzzServeTask feeds arbitrary frames to a word-count worker. No input
// may panic or exhaust memory; a rejected frame fails with a named
// decoding error. An accepted map frame's reply must equal what the
// coordinator computes in process for the same records, and an
// accepted reduce frame's reply must decode with nothing left over.
// Every accepted frame is served again by a worker whose scratch
// already served a map and a reduce frame, and must get the same
// reply. testdata/fuzz/FuzzServeTask holds the crafted inputs: a run
// header claiming 2^31 keys, offsets past the values, and a map frame
// for 0 (or 2^32-1) reduce partitions.
func FuzzServeTask(f *testing.F) {
	w := StringIntWire()
	job := wordCountJob(Config[string]{})
	runs, _, err := job.runMapTask(new(collector[string, int]), nil, 0, 1, corpus, Config[string]{ReduceTasks: 2}.withDefaults(), nil)
	if err != nil {
		f.Fatal(err)
	}
	reduce := binary.LittleEndian.AppendUint32(nil, 1)
	reduce = binary.LittleEndian.AppendUint32(reduce, 2)
	reduce = w.codec().appendRun(w.codec().appendRun(reduce, &runs[0]), &runs[1])
	f.Add(mrMap, mapFrame(3, 2, corpus))
	f.Add(mrReduce, reduce)
	f.Add(mrStop, []byte{})
	warmup := []pnet.Msg{{Type: mrMap, Payload: mapFrame(1, 5, fleetCorpus(60))}, {Type: mrReduce, Payload: reduce}}

	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		reply, err := job.taskServer(w).serve(context.Background(), pnet.Msg{Type: typ, Payload: p})
		if err != nil {
			if !errors.Is(err, errMalformed) && !errors.Is(err, pnet.ErrWorkerDone) &&
				!strings.Contains(err.Error(), "unexpected frame type") {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		warm := job.taskServer(w)
		for _, m := range warmup {
			if _, err := warm.serve(context.Background(), m); err != nil {
				t.Fatal(err)
			}
		}
		again, err := warm.serve(context.Background(), pnet.Msg{Type: typ, Payload: p})
		if err != nil || again.Type != reply.Type || !bytes.Equal(again.Payload, reply.Payload) {
			t.Fatalf("a warmed worker replies differently (err %v)", err)
		}
		switch typ {
		case mrMap:
			nReduce := int(binary.LittleEndian.Uint32(p[4:]))
			var records []string
			for rest := p[12:]; len(records) < int(binary.LittleEndian.Uint32(p[8:])); {
				var rec string
				rec, rest, _ = ReadString(rest)
				records = append(records, rec)
			}
			cfg := Config[string]{ReduceTasks: nReduce}.withDefaults()
			out, emitted, err := job.runMapTask(new(collector[string, int]), nil, 0, 1, records, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			want := binary.LittleEndian.AppendUint32(nil, binary.LittleEndian.Uint32(p))
			want = binary.LittleEndian.AppendUint32(want, uint32(emitted))
			want = binary.LittleEndian.AppendUint32(want, uint32(nReduce))
			for i := range out {
				run := w.codec().appendRun(nil, &out[i])
				want = append(binary.LittleEndian.AppendUint32(want, uint32(len(run))), run...)
			}
			if reply.Type != mrMapDone || !bytes.Equal(reply.Payload, want) {
				t.Fatalf("map reply differs from the in-process map task")
			}
		case mrReduce:
			nOut, rest, err := readCount(reply.Payload[12:], 1)
			for i := 0; err == nil && i < nOut; i++ {
				_, rest, err = w.ReadOut(rest)
			}
			if reply.Type != mrReduceDone || err != nil || len(rest) != 0 {
				t.Fatalf("reduce reply does not decode: %v, %d bytes left", err, len(rest))
			}
		}
	})
}

// reduceFrame builds partition p's reduce frame from map replies
// (each without its task id) as the coordinator does: the partition's
// non-empty runs in task order.
func reduceFrame(t *testing.T, p, nReduce int, replies ...[]byte) []byte {
	t.Helper()
	var runs [][]byte
	for _, r := range replies {
		_, rs, err := readMapReply[string, int](r, nReduce)
		if err != nil {
			t.Fatal(err)
		}
		if rs[p].wireKeys > 0 {
			runs = append(runs, rs[p].wire)
		}
	}
	buf := binary.LittleEndian.AppendUint32(nil, uint32(p))
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(runs)))
	for _, r := range runs {
		buf = append(buf, r...)
	}
	return buf
}

// TestWorkerCollectorReuseMatchesFresh: one worker's handler serves a
// sequence of frames through the collector and runs it keeps, and
// each reply is byte for byte what a fresh worker sends for the same
// frame — across splits big and empty, partition counts 8, 3, 8,
// reduce frames in between, and a map task that fails on a NaN key
// part-way through its split.
func TestWorkerCollectorReuseMatchesFresh(t *testing.T) {
	ctx := context.Background()
	type handler func(pnet.Msg, func(pnet.Msg) error) error
	serve := func(t *testing.T, h handler, m pnet.Msg) pnet.Msg {
		t.Helper()
		var got []pnet.Msg
		if err := h(m, func(r pnet.Msg) error {
			got = append(got, pnet.Msg{Type: r.Type, Payload: bytes.Clone(r.Payload)})
			return nil
		}); err != nil || len(got) != 1 {
			t.Fatalf("frame type %d: err %v, %d replies", m.Type, err, len(got))
		}
		return got[0]
	}
	same := func(t *testing.T, kept, fresh handler, m pnet.Msg) pnet.Msg {
		t.Helper()
		got, want := serve(t, kept, m), serve(t, fresh, m)
		if got.Type != want.Type || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("kept collector's reply (type %d, %d bytes) differs from a fresh one's (type %d, %d bytes)",
				got.Type, len(got.Payload), want.Type, len(want.Payload))
		}
		return got
	}

	lines := fleetCorpus(300)
	for _, combine := range []bool{false, true} {
		t.Run(fmt.Sprintf("combine=%v", combine), func(t *testing.T) {
			job := wordCountJob(Config[string]{})
			if combine {
				job.Combine = func(k string, vs []int) ([]int, error) {
					sum := 0
					for _, v := range vs {
						sum += v
					}
					return append(vs[:0], sum), nil
				}
			}
			w := StringIntWire()
			kept := job.taskServer(w)
			keptH := func(m pnet.Msg, send func(pnet.Msg) error) error { return kept.handle(ctx, m, send) }
			freshH := func(m pnet.Msg, send func(pnet.Msg) error) error {
				return job.taskServer(w).handle(ctx, m, send)
			}
			mapMsg := func(task, nReduce int, split []string) pnet.Msg {
				return pnet.Msg{Type: mrMap, Payload: mapFrame(task, nReduce, split)}
			}
			var replies8 [][]byte
			for i, m := range []pnet.Msg{
				mapMsg(0, 8, lines),
				mapMsg(1, 8, nil),
				mapMsg(2, 8, lines[:40]),
				mapMsg(3, 3, lines[100:]),
				mapMsg(4, 3, corpus),
				mapMsg(5, 8, lines[7:230]),
				mapMsg(6, 8, corpus),
			} {
				r := same(t, keptH, freshH, m)
				if nReduce := binary.LittleEndian.Uint32(m.Payload[4:]); nReduce == 8 {
					replies8 = append(replies8, r.Payload[4:])
				}
				if i == 2 || i == 6 {
					for p := range 8 {
						same(t, keptH, freshH, pnet.Msg{Type: mrReduce, Payload: reduceFrame(t, p, 8, replies8...)})
					}
				}
			}
		})
	}

	t.Run("nan", func(t *testing.T) {
		job := &Job[int, float64, int, string]{
			Map: func(r int, emit func(float64, int)) error {
				emit(float64(r%17)/4, r)
				if r == 33 {
					emit(math.NaN(), r)
				}
				return nil
			},
			Reduce: func(k float64, vs []int, emit func(string)) error { return nil },
		}
		w := floatWire()
		kept := job.taskServer(w)
		keptH := func(m pnet.Msg, send func(pnet.Msg) error) error { return kept.handle(ctx, m, send) }
		freshH := func(m pnet.Msg, send func(pnet.Msg) error) error {
			return job.taskServer(w).handle(ctx, m, send)
		}
		frame := func(task, nReduce, lo, hi int) pnet.Msg {
			buf := binary.LittleEndian.AppendUint32(nil, uint32(task))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(nReduce))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(hi-lo))
			for r := lo; r < hi; r++ {
				buf = AppendInt(buf, r)
			}
			return pnet.Msg{Type: mrMap, Payload: buf}
		}
		same(t, keptH, freshH, frame(0, 8, 0, 30))
		if r := same(t, keptH, freshH, frame(1, 3, 20, 60)); r.Type != mrFailed ||
			!strings.Contains(string(r.Payload[4:]), ErrNaNKey.Error()) {
			t.Fatalf("the NaN task answered type %d %q, want mrFailed naming ErrNaNKey", r.Type, r.Payload)
		}
		same(t, keptH, freshH, frame(2, 8, 40, 50))
		same(t, keptH, freshH, frame(3, 3, 0, 100))
	})
}

// FuzzMapReply feeds arbitrary bytes to the coordinator's map-reply
// walker. Every input either walks or fails with errMalformed, and
// none panics. An accepted reply has the partitions asked for, each
// run opens with its key count, and the runs with their length
// prefixes re-encode to exactly the payload, so none reaches past it:
// the walker gets spare capacity filled with other bytes, which a
// slice past the payload would pick up instead of panicking.
func FuzzMapReply(f *testing.F) {
	job := wordCountJob(Config[string]{})
	for _, nReduce := range []int{1, 3} {
		reply, err := job.taskServer(StringIntWire()).serve(context.Background(), pnet.Msg{Type: mrMap, Payload: mapFrame(0, nReduce, corpus)})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint16(nReduce), reply.Payload[4:])
	}
	u32 := binary.LittleEndian.AppendUint32
	f.Add(uint16(1), u32(u32(u32(u32(nil, 0), 1), 4), 1<<31))        // a run claiming 2^31 keys in 4 bytes
	f.Add(uint16(2), u32(u32(u32(u32(nil, 0), 2), 1<<31), 0))        // a run longer than the reply
	f.Add(uint16(9), u32(u32(nil, 0), 1<<30))                        // 2^30 partitions in no bytes
	f.Add(uint16(1), append(u32(u32(u32(u32(nil, 0), 1), 4), 0), 7)) // a byte after the runs

	f.Fuzz(func(t *testing.T, nReduce uint16, p []byte) {
		buf := append(p[:len(p):len(p)], bytes.Repeat([]byte{0xA5}, 64)...)[:len(p)]
		emitted, runs, err := readMapReply[string, int](buf, int(nReduce))
		if err != nil {
			if !errors.Is(err, errMalformed) {
				t.Fatalf("unnamed error: %v", err)
			}
			return
		}
		if len(runs) != int(nReduce) {
			t.Fatalf("%d runs for %d partitions", len(runs), nReduce)
		}
		again := u32(u32(nil, uint32(emitted)), uint32(len(runs)))
		for i, r := range runs {
			if len(r.wire) < 4 || r.wireKeys != int(binary.LittleEndian.Uint32(r.wire)) || r.wireKeys > len(r.wire)-4 {
				t.Fatalf("run %d: %d keys in %d bytes", i, r.wireKeys, len(r.wire))
			}
			again = append(u32(again, uint32(len(r.wire))), r.wire...)
		}
		if !bytes.Equal(again, p) {
			t.Fatal("the walked runs do not re-encode to the payload")
		}
	})
}

// TestServeTaskRejectsCraftedFrames pins the named error for each
// crafted frame that once crashed a worker: an allocation sized by an
// unchecked count, offsets the merge would slice past, and a division
// by zero partitions.
func TestServeTaskRejectsCraftedFrames(t *testing.T) {
	u32 := binary.LittleEndian.AppendUint32
	run := AppendString(u32(nil, 1), "a")
	run = AppendInt(u32(u32(u32(u32(run, 2), 0), 5), 1), 7)
	for _, tc := range []struct {
		name string
		typ  uint8
		p    []byte
		want error
	}{
		{"run claims 2^31 keys", mrReduce, append(u32(u32(u32(nil, 0), 1), 1<<31), make([]byte, 8)...), errCount},
		{"offsets past the values", mrReduce, append(u32(u32(nil, 0), 1), run...), errOffsets},
		{"zero partitions", mrMap, mapFrame(0, 0, []string{"a b"}), errPartitions},
		{"2^32-1 partitions", mrMap, mapFrame(0, 1<<32-1, []string{"a b"}), errPartitions},
	} {
		_, err := wordCountJob(Config[string]{}).taskServer(StringIntWire()).serve(context.Background(), pnet.Msg{Type: tc.typ, Payload: tc.p})
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestFleetPoisonTaskFailsJob: a map task that fails on every attempt
// ends RunFleet with the mapper's error once MaxAttempts is spent. Its
// worker answers each attempt with a failure frame and keeps serving,
// so no respawn ever re-runs the task behind the dispatcher's back.
func TestFleetPoisonTaskFailsJob(t *testing.T) {
	cfg := Config[string]{MapTasks: 4, ReduceTasks: 2, MaxAttempts: 3}
	poisoned := func() *Job[string, string, int, KV[string, int]] {
		job := wordCountJob(cfg)
		mapper := job.Map
		job.Map = func(line string, emit func(string, int)) error {
			if strings.Contains(line, "poison") {
				return errors.New("poison record")
			}
			return mapper(line, emit)
		}
		return job
	}
	var attempts atomic.Int64
	tr, _ := pnet.New("chan")
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fc := &pnet.FleetConfig{
		Transport: tr, Listen: "mr-fleet-poison", Workers: 2,
		Lease: 300 * time.Millisecond, JoinTimeout: 5 * time.Second,
		Spawn: func(rank int, addr string) error {
			job := poisoned()
			mapper := job.Map
			job.Map = func(line string, emit func(string, int)) error {
				if strings.Contains(line, "poison") {
					attempts.Add(1)
				}
				return mapper(line, emit)
			}
			go job.FleetWorker(ctx, pnet.WorkerConfig{Transport: tr, Join: addr, Rank: rank,
				Backoff: pnet.Backoff{Base: 5 * time.Millisecond, Max: 50 * time.Millisecond}}, StringIntWire())
			return nil
		},
	}
	lines := append(fleetCorpus(40), "poison pill")
	_, _, err := poisoned().RunFleet(ctx, lines, fc, StringIntWire())
	if err == nil || !strings.Contains(err.Error(), "poison record") || !strings.Contains(err.Error(), "map task 3") {
		t.Fatalf("err = %v, want map task 3's poison record error", err)
	}
	if ctx.Err() != nil {
		t.Fatal("RunFleet outlived its 20 s deadline")
	}
	if n := attempts.Load(); n != 3 {
		t.Fatalf("poison task ran %d times on the workers, want MaxAttempts = 3", n)
	}
}

// TestFleetCleanRunNoRedispatch: with no worker dying, no task is
// dispatched twice — a worker's first join is not a rejoin.
func TestFleetCleanRunNoRedispatch(t *testing.T) {
	cfg := Config[string]{MapTasks: 8, ReduceTasks: 3}
	for i := 0; i < 5; i++ {
		tr, _ := pnet.New("chan")
		_, stats := runFleetWordCount(t, cfg, fleetCorpus(200), fleetWorkers(tr, cfg, 3))
		if stats.TaskRetries != 0 {
			t.Fatalf("run %d: clean fleet run re-dispatched %d tasks", i, stats.TaskRetries)
		}
	}
}

// TestFleetFrameScratchAllocsNothing: the coordinator builds every map
// and reduce frame in one array kept for the run, so once it has grown
// to the largest frame, building one allocates nothing.
func TestFleetFrameScratchAllocsNothing(t *testing.T) {
	const nReduce = 3
	job := wordCountJob(Config[string]{MapTasks: 4, ReduceTasks: nReduce})
	splits := splitInputs(fleetCorpus(400), 4)
	f := &fleetRun[string, string, int, KV[string, int]]{fleetExec: &fleetExec{}, w: StringIntWire()}

	md := &dispatcher[mapResult[string, int]]{}
	f.maps(md, splits, nReduce)
	mapOut := make([][]run[string, int], len(splits))
	for task := range splits {
		reply, err := job.taskServer(f.w).serve(context.Background(), f.msg(task))
		if err != nil {
			t.Fatal(err)
		}
		r, err := md.decode(task, reply.Payload[4:])
		if err != nil {
			t.Fatal(err)
		}
		mapOut[task] = r.runs
	}
	if n := testing.AllocsPerRun(20, func() {
		for task := range splits {
			f.msg(task)
		}
	}); n != 0 {
		t.Errorf("building %d map frames allocates %v times", len(splits), n)
	}

	rd := &dispatcher[partResult[KV[string, int]]]{}
	f.reduces(rd, mapOut, nReduce)
	for p := range nReduce {
		f.msg(p)
	}
	if n := testing.AllocsPerRun(20, func() {
		for p := range nReduce {
			f.msg(p)
		}
	}); n != 0 {
		t.Errorf("building %d reduce frames allocates %v times", nReduce, n)
	}
}
