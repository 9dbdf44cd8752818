package mapreduce

// fleet.go distributes a job over real process boundaries: map tasks
// and reduce partitions are shipped to fleet workers over internal/net
// instead of goroutines, with the shuffle's sorted runs serialized
// across the wire. The coordinator is a plain task dispatcher — a task
// is idempotent (deterministic map/reduce over deterministic input),
// so a worker SIGKILLed mid-task is handled by re-dispatching the task
// after the rejoin, and a rank that never comes back has its tasks
// reassigned to the survivors. If every worker is lost the coordinator
// inlines the remaining tasks itself: degraded, never wrong. Output
// is byte-identical to Job.Run — the fleet changes where tasks
// execute, not what they compute.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	pnet "repro/internal/net"
	"repro/internal/obs"
)

// MRProto names the fleet wire protocol version.
const MRProto = "mapreduce/1"

// Fleet application frame types.
const (
	// mrMap (coordinator -> worker): one map task — task id, reduce
	// partition count, and the split's input records.
	mrMap uint8 = pnet.FrameApp + iota
	// mrMapDone (worker -> coordinator): the task's per-partition
	// sorted runs plus the raw emission count.
	mrMapDone
	// mrReduce (coordinator -> worker): one reduce partition — its id
	// and every map task's non-empty run for it, in task order.
	mrReduce
	// mrReduceDone (worker -> coordinator): the partition's outputs
	// plus pair/group counts.
	mrReduceDone
	// mrStop (coordinator -> worker): the job is over; exit cleanly.
	mrStop
)

// Wire bundles the codec functions a fleet job needs to move records,
// intermediate pairs, and outputs between processes. Append functions
// extend a buffer; Read functions consume their encoding and return
// the remainder (the same inverse contract as External's codecs).
// Every encoding takes at least one byte: decoders bound counts by it.
type Wire[I any, K cmp.Ordered, V, O any] struct {
	AppendIn  func([]byte, I) []byte
	ReadIn    func([]byte) (I, []byte, error)
	AppendKey func([]byte, K) []byte
	ReadKey   func([]byte) (K, []byte, error)
	AppendVal func([]byte, V) []byte
	ReadVal   func([]byte) (V, []byte, error)
	AppendOut func([]byte, O) []byte
	ReadOut   func([]byte) (O, []byte, error)
}

func (w *Wire[I, K, V, O]) check() error {
	if w == nil || w.AppendIn == nil || w.ReadIn == nil ||
		w.AppendKey == nil || w.ReadKey == nil ||
		w.AppendVal == nil || w.ReadVal == nil ||
		w.AppendOut == nil || w.ReadOut == nil {
		return errors.New("mapreduce: fleet wire needs all eight codec functions")
	}
	return nil
}

// StringIntWire is the ready-made wire for jobs with string records,
// string keys, int values, and KV[string, int] outputs — word count
// and friends.
func StringIntWire() *Wire[string, string, int, KV[string, int]] {
	return &Wire[string, string, int, KV[string, int]]{
		AppendIn: AppendString, ReadIn: ReadString,
		AppendKey: AppendString, ReadKey: ReadString,
		AppendVal: AppendInt, ReadVal: ReadInt,
		AppendOut: func(buf []byte, kv KV[string, int]) []byte {
			return AppendInt(AppendString(buf, kv.Key), kv.Value)
		},
		ReadOut: func(buf []byte) (KV[string, int], []byte, error) {
			k, rest, err := ReadString(buf)
			if err != nil {
				return KV[string, int]{}, rest, err
			}
			v, rest, err := ReadInt(rest)
			return KV[string, int]{k, v}, rest, err
		},
	}
}

// errPartitions rejects a map frame's partition count.
var errPartitions = fmt.Errorf("%w: reduce partition count out of range", errMalformed)

// maxFleetPartitions caps the partition count a map frame may ask a
// worker to build runs for.
const maxFleetPartitions = 1 << 16

// FleetWorker joins the fleet at cfg.Join and executes map and reduce
// tasks until the coordinator sends stop. The worker process must
// construct the same Job (same Map/Combine/Reduce and Partitioner) the
// coordinator runs — only data crosses the wire, never code.
func (j *Job[I, K, V, O]) FleetWorker(ctx context.Context, cfg pnet.WorkerConfig, w *Wire[I, K, V, O]) error {
	if err := w.check(); err != nil {
		return err
	}
	if cfg.Proto == "" {
		cfg.Proto = MRProto
	}
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		reply, err := j.serveTask(ctx, m, w)
		if err != nil {
			return err
		}
		return send(reply)
	})
}

// serveTask is a worker's handling of one coordinator frame: a map
// task or a reduce partition, decoded, executed and encoded as the
// reply; stop yields pnet.ErrWorkerDone.
func (j *Job[I, K, V, O]) serveTask(ctx context.Context, m pnet.Msg, w *Wire[I, K, V, O]) (pnet.Msg, error) {
	buf := m.Payload
	switch m.Type {
	case mrMap:
		if len(buf) < 8 {
			return pnet.Msg{}, fmt.Errorf("%w: truncated map message", errMalformed)
		}
		task := int(binary.LittleEndian.Uint32(buf))
		nReduce := int(binary.LittleEndian.Uint32(buf[4:]))
		if nReduce < 1 || nReduce > maxFleetPartitions {
			return pnet.Msg{}, fmt.Errorf("%w: %d", errPartitions, nReduce)
		}
		nRec, buf, err := readCount(buf[8:], 1)
		if err != nil {
			return pnet.Msg{}, err
		}
		records := make([]I, nRec)
		for i := range records {
			if records[i], buf, err = w.ReadIn(buf); err != nil {
				return pnet.Msg{}, fmt.Errorf("%w: record %d: %w", errMalformed, i, err)
			}
		}
		cfg := j.Config.withDefaults()
		cfg.ReduceTasks = nReduce
		out, emitted, _, err := j.runMapTask(ctx, task, records, cfg, nil)
		if err != nil {
			return pnet.Msg{}, err
		}
		reply := binary.LittleEndian.AppendUint32(nil, uint32(task))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(emitted))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(len(out)))
		for p := range out {
			reply = appendRun(reply, &out[p], w.AppendKey, w.AppendVal)
		}
		return pnet.Msg{Type: mrMapDone, Payload: reply}, nil
	case mrReduce:
		if len(buf) < 4 {
			return pnet.Msg{}, fmt.Errorf("%w: truncated reduce message", errMalformed)
		}
		p := int(binary.LittleEndian.Uint32(buf))
		nRuns, buf, err := readCount(buf[4:], 12)
		if err != nil {
			return pnet.Msg{}, err
		}
		runs := make([]*run[K, V], nRuns)
		for i := range runs {
			var r run[K, V]
			if r, buf, err = readRun(buf, w.ReadKey, w.ReadVal); err != nil {
				return pnet.Msg{}, err
			}
			runs[i] = &r
		}
		var outs []O
		emit := func(o O) { outs = append(outs, o) }
		pairs, groups, err := mergeRuns(runs, func(key K, values []V, gi int) error {
			return j.Reduce(key, values, emit)
		})
		if err != nil {
			return pnet.Msg{}, err
		}
		reply := binary.LittleEndian.AppendUint32(nil, uint32(p))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(pairs))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(groups))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(len(outs)))
		for _, o := range outs {
			reply = w.AppendOut(reply, o)
		}
		return pnet.Msg{Type: mrReduceDone, Payload: reply}, nil
	case mrStop:
		return pnet.Msg{}, pnet.ErrWorkerDone
	default:
		return pnet.Msg{}, fmt.Errorf("mapreduce: unexpected frame type %d", m.Type)
	}
}

// fleetPhase dispatches tasks [0, n) across the fleet: every idle
// worker gets a task, a dead worker's task goes back to the pending
// pool (re-dispatched to whoever is free — the deterministic task
// makes duplicate execution harmless, and completion is recorded only
// once), and when every rank is lost the coordinator serves the rest of
// the frames itself, through the worker's own code.
// retries counts re-dispatches caused by deaths.
func fleetPhase(ctx context.Context, co *pnet.Coordinator, workers int, n int,
	mkMsg func(task int) pnet.Msg,
	done func(task int, payload []byte) error,
	serve func(pnet.Msg) (pnet.Msg, error),
	doneType uint8, lost []bool, sink obs.Sink) (retries int, err error) {

	if n == 0 {
		return 0, nil
	}
	pending := make([]int, n)
	for i := range pending {
		pending[i] = n - 1 - i // pop order = task order
	}
	assigned := make([]int, workers) // rank -> task, -1 = idle
	for i := range assigned {
		assigned[i] = -1
	}
	completed := make([]bool, n)
	remaining := n

	allLost := func() bool {
		for _, l := range lost {
			if !l {
				return false
			}
		}
		return true
	}
	inlineRest := func() error {
		for t := 0; t < n; t++ {
			if completed[t] {
				continue
			}
			reply, err := serve(mkMsg(t))
			if err == nil {
				err = done(t, reply.Payload[4:])
			}
			if err != nil {
				return fmt.Errorf("mapreduce: inline task %d: %w", t, err)
			}
			completed[t] = true
			remaining--
		}
		return nil
	}
	assign := func(rank int) {
		if lost[rank] || assigned[rank] >= 0 {
			return
		}
		for len(pending) > 0 {
			t := pending[len(pending)-1]
			pending = pending[:len(pending)-1]
			if completed[t] {
				continue
			}
			if co.Send(rank, mkMsg(t)) == nil {
				assigned[rank] = t
			} else {
				pending = append(pending, t)
			}
			return
		}
	}
	release := func(rank int) {
		if t := assigned[rank]; t >= 0 {
			assigned[rank] = -1
			if !completed[t] {
				pending = append(pending, t)
				retries++
			}
		}
	}

	for r := 0; r < workers; r++ {
		assign(r)
	}
	for remaining > 0 {
		if allLost() {
			sink.Log.Event(obs.LevelError, "mapreduce", "all fleet workers lost; finishing inline",
				obs.Arg{Key: "remaining", Value: int64(remaining)})
			return retries, inlineRest()
		}
		select {
		case <-ctx.Done():
			return retries, ctx.Err()
		case ev, ok := <-co.Events():
			if !ok {
				return retries, errors.New("mapreduce: fleet coordinator closed")
			}
			switch ev.Kind {
			case pnet.PeerJoined:
				// A rejoining rank lost its in-flight task with its
				// process; hand it (or the next pending one) out again.
				release(ev.Rank)
				assign(ev.Rank)
			case pnet.PeerDead:
				release(ev.Rank)
				sink.Log.Event(obs.LevelWarn, "mapreduce", "fleet worker died",
					obs.Arg{Key: "rank", Value: int64(ev.Rank)})
				// Reassign to an idle survivor right away rather than
				// waiting for the respawn.
				for r := 0; r < workers; r++ {
					assign(r)
				}
			case pnet.PeerLost:
				lost[ev.Rank] = true
				release(ev.Rank)
				for r := 0; r < workers; r++ {
					assign(r)
				}
			case pnet.PeerMsg:
				if ev.Msg.Type != doneType || len(ev.Msg.Payload) < 4 {
					continue
				}
				t := int(binary.LittleEndian.Uint32(ev.Msg.Payload))
				if t < 0 || t >= n {
					return retries, fmt.Errorf("mapreduce: fleet done for unknown task %d", t)
				}
				if assigned[ev.Rank] == t {
					assigned[ev.Rank] = -1
				}
				if completed[t] {
					assign(ev.Rank) // duplicate after a re-dispatch race
					continue
				}
				if err := done(t, ev.Msg.Payload[4:]); err != nil {
					return retries, err
				}
				completed[t] = true
				remaining--
				assign(ev.Rank)
			}
		}
	}
	return retries, nil
}

// RunFleet executes the job over a worker fleet and returns outputs in
// the same deterministic order as Run: reduce partitions in index
// order, keys ascending within each. Spill, External, ReferenceShuffle
// and fault injection are single-process features and are rejected
// here; fleet crashes are real worker deaths.
func (j *Job[I, K, V, O]) RunFleet(ctx context.Context, inputs []I, fc *pnet.FleetConfig, w *Wire[I, K, V, O]) ([]O, Stats, error) {
	if err := w.check(); err != nil {
		return nil, Stats{}, err
	}
	if j.Map == nil || j.Reduce == nil {
		return nil, Stats{}, errors.New("mapreduce: job needs both Map and Reduce")
	}
	if j.Config.Faults != nil || j.Spill != nil || j.Config.MaxShuffleBytes > 0 || j.Config.ReferenceShuffle ||
		j.Config.ReduceTasks > maxFleetPartitions {
		return nil, Stats{}, errors.New("mapreduce: fleet mode excludes Faults/Spill/External/ReferenceShuffle and over 65536 reduce tasks")
	}
	if j.Counters == nil {
		j.Counters = NewCounters()
	}
	cfg := j.Config.withDefaults()
	splits := splitInputs(inputs, cfg.MapTasks)
	stats := Stats{MapTasks: len(splits), ReduceTasks: cfg.ReduceTasks}
	for _, s := range splits {
		stats.MapInputs += len(s)
	}

	conf := *fc
	conf.Proto = MRProto
	if conf.Workers <= 0 {
		return nil, stats, errors.New("mapreduce: fleet needs FleetConfig.Workers >= 1")
	}
	if !conf.Obs.Enabled() {
		conf.Obs = cfg.Obs
	}
	co, err := pnet.NewCoordinator(conf)
	if err != nil {
		return nil, stats, err
	}
	defer co.Close()
	lost := make([]bool, conf.Workers)
	serve := func(m pnet.Msg) (pnet.Msg, error) { return j.serveTask(ctx, m, w) }
	pr := startProgress(cfg.Obs.Progress, len(splits), cfg.ReduceTasks)

	// ---- Map phase over the fleet -----------------------------------
	mapOut := make([][]run[K, V], len(splits))
	mapDone := 0
	mapRetries, err := fleetPhase(ctx, co, conf.Workers, len(splits),
		func(t int) pnet.Msg {
			buf := binary.LittleEndian.AppendUint32(nil, uint32(t))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(cfg.ReduceTasks))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(splits[t])))
			for _, rec := range splits[t] {
				buf = w.AppendIn(buf, rec)
			}
			return pnet.Msg{Type: mrMap, Payload: buf}
		},
		func(t int, payload []byte) error {
			if len(payload) < 8 {
				return errors.New("mapreduce: truncated map reply")
			}
			emitted := int(binary.LittleEndian.Uint32(payload))
			nParts := int(binary.LittleEndian.Uint32(payload[4:]))
			buf := payload[8:]
			if nParts != cfg.ReduceTasks {
				return fmt.Errorf("mapreduce: map reply has %d partitions, want %d", nParts, cfg.ReduceTasks)
			}
			out := make([]run[K, V], nParts)
			var err error
			for p := range out {
				if out[p], buf, err = readRun(buf, w.ReadKey, w.ReadVal); err != nil {
					return err
				}
			}
			mapOut[t] = out
			stats.MapOutputs += emitted
			j.Counters.Add("map.outputs", int64(emitted))
			mapDone++
			pr.Update("mapreduce", obs.F("map_done", float64(mapDone)))
			return nil
		},
		serve, mrMapDone, lost, cfg.Obs)
	if err != nil {
		return nil, stats, err
	}

	// ---- Reduce phase over the fleet --------------------------------
	partRuns := make([][]*run[K, V], cfg.ReduceTasks)
	for p := range partRuns {
		partRuns[p] = partitionRuns(mapOut, p)
		stats.ShuffleRuns += len(partRuns[p])
		if len(partRuns[p]) > 0 {
			stats.MergePasses++
		}
	}
	partOut := make([][]O, cfg.ReduceTasks)
	redDone := 0
	redRetries, err := fleetPhase(ctx, co, conf.Workers, cfg.ReduceTasks,
		func(p int) pnet.Msg {
			buf := binary.LittleEndian.AppendUint32(nil, uint32(p))
			buf = binary.LittleEndian.AppendUint32(buf, uint32(len(partRuns[p])))
			for _, r := range partRuns[p] {
				buf = appendRun(buf, r, w.AppendKey, w.AppendVal)
			}
			return pnet.Msg{Type: mrReduce, Payload: buf}
		},
		func(p int, payload []byte) error {
			if len(payload) < 12 {
				return errors.New("mapreduce: truncated reduce reply")
			}
			pairs := int(binary.LittleEndian.Uint32(payload))
			groups := int(binary.LittleEndian.Uint32(payload[4:]))
			nOut, buf, err := readCount(payload[8:], 1)
			if err != nil {
				return err
			}
			outs := make([]O, nOut)
			for i := range outs {
				if outs[i], buf, err = w.ReadOut(buf); err != nil {
					return err
				}
			}
			partOut[p] = outs
			stats.CombineOutputs += pairs
			stats.ReduceGroups += groups
			redDone++
			pr.Update("mapreduce", obs.F("reduce_done", float64(redDone)))
			return nil
		},
		serve, mrReduceDone, lost, cfg.Obs)
	if err != nil {
		return nil, stats, err
	}

	co.Stop(pnet.Msg{Type: mrStop})
	stats.TaskRetries = mapRetries + redRetries
	var out []O
	for _, po := range partOut {
		out = append(out, po...)
	}
	stats.Outputs = len(out)
	stats.publish(cfg.Obs.Metrics, false)
	return out, stats, nil
}
