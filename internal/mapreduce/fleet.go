package mapreduce

// fleet.go distributes a job over real process boundaries: the shared
// dispatcher (dispatch.go) runs map tasks and reduce partitions on the
// fleet-rank executor, one frame per attempt to an idle worker over
// internal/net, with the shuffle's sorted runs serialized across the
// wire. The coordinator forwards each run from its map reply to its
// reduce frame as the bytes it arrived in, never decoding it. Tasks
// are idempotent (deterministic map/reduce over deterministic input),
// so a task whose worker was SIGKILLed is simply dispatched again, to
// the rejoined rank or a survivor. A task error is the task's, not the
// worker's: the worker answers mrFailed and keeps serving, and the
// dispatcher retries the task like any failed attempt. Once every rank
// is lost the rest of the phase runs on goroutines, which decode the
// forwarded runs they merge: degraded, never wrong. Output is
// byte-identical to Job.Run — the fleet changes where tasks execute,
// not what they compute.

import (
	"cmp"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	pnet "repro/internal/net"
	"repro/internal/obs"
)

// MRProto names the fleet wire protocol version.
const MRProto = "mapreduce/3"

// Fleet application frame types.
const (
	// mrMap (coordinator -> worker): one map task — task id, reduce
	// partition count, and the split's input records.
	mrMap uint8 = pnet.FrameApp + iota
	// mrMapDone (worker -> coordinator): the task id, the raw emission
	// count, the partition count, then each partition's sorted run
	// prefixed with its byte length (u32).
	mrMapDone
	// mrReduce (coordinator -> worker): one reduce partition — its id
	// and every map task's non-empty run for it, in task order.
	mrReduce
	// mrReduceDone (worker -> coordinator): the partition's outputs
	// plus pair/group counts.
	mrReduceDone
	// mrStop (coordinator -> worker): the job is over; exit cleanly.
	mrStop
	// mrFailed (worker -> coordinator): the task failed — its id and
	// the error text.
	mrFailed
)

// taskError is a task failure a fleet worker reported as text. Only
// text crosses the wire, so it matches ErrNaNKey by the text it names.
type taskError string

func (e taskError) Error() string { return string(e) }
func (e taskError) Is(target error) bool {
	return target == ErrNaNKey && strings.Contains(string(e), ErrNaNKey.Error())
}

// Wire bundles the codec functions a fleet job needs to move records,
// intermediate pairs, and outputs between processes, with the inverse
// contract of Codec: Append functions extend a buffer, Read functions
// consume their encoding and return the remainder, and every encoding
// takes at least one byte. Its key/value pair is the job's Codec.
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
		w.AppendOut == nil || w.ReadOut == nil || w.codec().check() != nil {
		return errors.New("mapreduce: fleet wire needs all eight codec functions")
	}
	return nil
}

// codec is the wire's key/value pair as the run codec.
func (w *Wire[I, K, V, O]) codec() *Codec[K, V] {
	return &Codec[K, V]{AppendKey: w.AppendKey, ReadKey: w.ReadKey, AppendVal: w.AppendVal, ReadVal: w.ReadVal}
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
// tasks until the coordinator sends stop; a failed task is answered
// with an mrFailed frame and the worker keeps serving. The worker
// process must construct the same Job (same Map/Combine/Reduce and
// Partitioner) the coordinator runs — only data crosses the wire.
func (j *Job[I, K, V, O]) FleetWorker(ctx context.Context, cfg pnet.WorkerConfig, w *Wire[I, K, V, O]) error {
	if err := w.check(); err != nil {
		return err
	}
	if cfg.Proto == "" {
		cfg.Proto = MRProto
	}
	s := j.taskServer(w)
	return pnet.RunWorker(ctx, cfg, func(m pnet.Msg, send func(pnet.Msg) error) error {
		return s.handle(ctx, m, send)
	})
}

// taskServer is a fleet worker's side of the task protocol. It serves
// one frame at a time and keeps its task scratch for the worker's
// whole life: a task's runs are encoded into its reply before the next
// task refills their arrays, and a reply is sent (Conn.Send copies it)
// before the next one is built in the same array.
type taskServer[I any, K cmp.Ordered, V, O any] struct {
	j       *Job[I, K, V, O]
	w       *Wire[I, K, V, O]
	c       collector[K, V]
	records []I
	out     []run[K, V]  // the last map task's runs
	in      []run[K, V]  // the last reduce frame's runs, refilled by readRun
	inp     []*run[K, V] // in, as the merge takes it
	reply   []byte       // the last reply's payload
}

func (j *Job[I, K, V, O]) taskServer(w *Wire[I, K, V, O]) *taskServer[I, K, V, O] {
	return &taskServer[I, K, V, O]{j: j, w: w}
}

// handle is the worker's frame handler: it answers m through send,
// with mrFailed when the task fails.
func (s *taskServer[I, K, V, O]) handle(ctx context.Context, m pnet.Msg, send func(pnet.Msg) error) error {
	reply, err := s.serve(ctx, m)
	if err != nil {
		if errors.Is(err, pnet.ErrWorkerDone) || len(m.Payload) < 4 {
			return err
		}
		// The task's failure, not the worker's: report it and serve on.
		reply = pnet.Msg{Type: mrFailed, Payload: append(m.Payload[:4:4], err.Error()...)}
	}
	return send(reply)
}

// serve is a worker's handling of one coordinator frame: a map task or
// a reduce partition, decoded, executed and encoded as the reply; stop
// yields pnet.ErrWorkerDone. The reply's payload is valid until the
// next frame is served.
func (s *taskServer[I, K, V, O]) serve(ctx context.Context, m pnet.Msg) (pnet.Msg, error) {
	j, w, buf := s.j, s.w, m.Payload
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
		records := resize(s.records, nRec)
		s.records = records
		for i := range records {
			if records[i], buf, err = w.ReadIn(buf); err != nil {
				return pnet.Msg{}, fmt.Errorf("%w: record %d: %w", errMalformed, i, err)
			}
		}
		cfg := j.Config.withDefaults()
		cfg.ReduceTasks = nReduce
		out, emitted, err := j.runMapTask(&s.c, s.out, task, 1, records, cfg, nil)
		if err != nil {
			return pnet.Msg{}, err
		}
		s.out = out
		reply := binary.LittleEndian.AppendUint32(s.reply[:0], uint32(task))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(emitted))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(len(out)))
		c := w.codec()
		for p := range out {
			at := len(reply)
			reply = c.appendRun(append(reply, 0, 0, 0, 0), &out[p])
			binary.LittleEndian.PutUint32(reply[at:], uint32(len(reply)-at-4))
		}
		s.reply = reply
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
		if nRuns > len(s.in) {
			s.in = append(s.in, make([]run[K, V], nRuns-len(s.in))...)
		}
		runs := resize(s.inp, nRuns)
		s.inp = runs
		c := w.codec()
		for i := range runs {
			runs[i] = &s.in[i]
			if buf, err = c.readRun(runs[i], buf); err != nil {
				return pnet.Msg{}, err
			}
		}
		r, err := j.reducePartition(ctx, p, j.Config.withDefaults(), nil, func(group groupFunc[K, V]) (int, int, int, int, error) {
			return memMerge(runs, group)
		})
		if err != nil {
			return pnet.Msg{}, err
		}
		reply := binary.LittleEndian.AppendUint32(s.reply[:0], uint32(p))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(r.pairs))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(r.groups))
		reply = binary.LittleEndian.AppendUint32(reply, uint32(len(r.out)))
		for _, o := range r.out {
			reply = w.AppendOut(reply, o)
		}
		s.reply = reply
		return pnet.Msg{Type: mrReduceDone, Payload: reply}, nil
	case mrStop:
		return pnet.Msg{}, pnet.ErrWorkerDone
	default:
		return pnet.Msg{}, fmt.Errorf("mapreduce: unexpected frame type %d", m.Type)
	}
}

// fleetExec is the fleet-rank executor: it ships one frame per
// attempt, at most one attempt per rank, and knows which ranks the
// supervisor has given up on.
type fleetExec struct {
	co       *pnet.Coordinator
	sink     obs.Sink
	ranks    []attempt // the attempt in flight per rank, or idle
	lost     []bool
	msg      func(task int) pnet.Msg // the phase's task frame
	doneType uint8                   // the phase's reply frame
	// frame is the last task frame's payload. Every frame of the run is
	// built in its array: Coordinator.Send does not retain a payload.
	frame []byte
}

func (f *fleetExec) allLost() bool { return !slices.Contains(f.lost, false) }

// send ships a to the first idle rank whose connection takes the
// frame; a disconnected rank gets work again once it rejoins.
func (f *fleetExec) send(a attempt) bool {
	var m pnet.Msg
	for r, cur := range f.ranks {
		if f.lost[r] || cur.task >= 0 {
			continue
		}
		if m.Payload == nil {
			m = f.msg(a.task)
		}
		if f.co.Send(r, m) == nil {
			f.ranks[r] = a
			return true
		}
	}
	return false
}

// fleetRun puts a job's phases on the fleet-rank executor: it builds
// each task's frame and decodes each reply with the job's wire. A nil
// fleetRun leaves a phase on goroutines.
type fleetRun[I any, K cmp.Ordered, V, O any] struct {
	*fleetExec
	w *Wire[I, K, V, O]
}

// maps puts the map phase over splits on the fleet.
func (f *fleetRun[I, K, V, O]) maps(d *dispatcher[mapResult[K, V]], splits [][]I, nReduce int) {
	if f == nil {
		return
	}
	d.fleet, f.doneType = f.fleetExec, mrMapDone
	f.msg = func(t int) pnet.Msg {
		buf := binary.LittleEndian.AppendUint32(f.frame[:0], uint32(t))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(nReduce))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(splits[t])))
		for _, rec := range splits[t] {
			buf = f.w.AppendIn(buf, rec)
		}
		f.frame = buf
		return pnet.Msg{Type: mrMap, Payload: buf}
	}
	d.decode = func(_ int, p []byte) (r mapResult[K, V], err error) {
		r.emitted, r.runs, err = readMapReply[K, V](p, nReduce)
		return r, err
	}
}

// readMapReply walks a map reply after its task id: the emission count,
// the partition count, which must be nReduce, and one length-prefixed
// run per partition. The runs are left undecoded, aliasing p: each is
// only checked to lie within p and to open with a key count its bytes
// can hold. The reducer's readRun checks every byte before use.
func readMapReply[K cmp.Ordered, V any](p []byte, nReduce int) (emitted int, runs []run[K, V], err error) {
	if len(p) < 4 {
		return 0, nil, fmt.Errorf("%w: truncated map reply", errMalformed)
	}
	emitted = int(binary.LittleEndian.Uint32(p))
	// Each run takes at least its length and its key count.
	n, p, err := readCount(p[4:], 8)
	if err != nil {
		return 0, nil, err
	}
	if n != nReduce {
		return 0, nil, fmt.Errorf("%w: map reply has %d partitions, want %d", errMalformed, n, nReduce)
	}
	runs = make([]run[K, V], n)
	for i := range runs {
		size, rest, err := readCount(p, 1)
		if err != nil {
			return 0, nil, err
		}
		b := rest[:size:size]
		if runs[i].wireKeys, _, err = readCount(b, 1); err != nil {
			return 0, nil, fmt.Errorf("partition %d: %w", i, err)
		}
		runs[i].wire, p = b, rest[size:]
	}
	if len(p) > 0 {
		return 0, nil, fmt.Errorf("%w: %d bytes after the map reply's runs", errMalformed, len(p))
	}
	return emitted, runs, nil
}

// reduces puts the reduce phase over mapOut's partitions on the fleet.
func (f *fleetRun[I, K, V, O]) reduces(d *dispatcher[partResult[O]], mapOut [][]run[K, V], nReduce int) {
	if f == nil {
		return
	}
	partRuns := make([][]*run[K, V], nReduce)
	for p := range partRuns {
		partRuns[p] = partitionRuns(mapOut, p)
	}
	d.fleet, f.doneType = f.fleetExec, mrReduceDone
	// Every run a frame carries arrived in a map reply: a map task runs
	// here only once every worker is lost, and then no reduce frame is
	// sent.
	f.msg = func(p int) pnet.Msg {
		size := 8
		for _, r := range partRuns[p] {
			size += len(r.wire)
		}
		buf := binary.LittleEndian.AppendUint32(slices.Grow(f.frame[:0], size), uint32(p))
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(partRuns[p])))
		for _, r := range partRuns[p] {
			buf = append(buf, r.wire...)
		}
		f.frame = buf
		return pnet.Msg{Type: mrReduce, Payload: buf}
	}
	// A partition runs here only once every worker is lost, and no frame
	// reads its runs after that: decode them in place for the merge.
	c := f.w.codec()
	inline := d.run
	d.run = func(a attempt) (partResult[O], error) {
		for _, r := range partRuns[a.task] {
			if r.wire == nil {
				continue
			}
			rest, err := c.readRun(r, r.wire)
			if err == nil && len(rest) > 0 {
				err = fmt.Errorf("%w: %d bytes after a forwarded run", errMalformed, len(rest))
			}
			if err != nil {
				return partResult[O]{}, err
			}
			r.wire, r.wireKeys = nil, 0
		}
		return inline(a)
	}
	d.decode = func(p int, payload []byte) (r partResult[O], err error) {
		if len(payload) < 12 {
			return r, errors.New("mapreduce: truncated reduce reply")
		}
		r.pairs = int(binary.LittleEndian.Uint32(payload))
		r.groups = int(binary.LittleEndian.Uint32(payload[4:]))
		r.runs = len(partRuns[p])
		r.passes = min(r.runs, 1)
		nOut, buf, err := readCount(payload[8:], 1)
		if err != nil {
			return r, err
		}
		r.out = make([]O, nOut)
		for i := range r.out {
			if r.out[i], buf, err = f.w.ReadOut(buf); err != nil {
				return r, err
			}
		}
		return r, nil
	}
}

// RunFleet executes the job over a worker fleet and returns outputs in
// the same deterministic order as Run: reduce partitions in index
// order, keys ascending within each. It is Run with the fleet-rank
// executor under both phases. Spill, External, ReferenceShuffle and
// fault injection are single-process features and are rejected here;
// fleet crashes are real worker deaths.
func (j *Job[I, K, V, O]) RunFleet(ctx context.Context, inputs []I, fc *pnet.FleetConfig, w *Wire[I, K, V, O]) ([]O, Stats, error) {
	if err := w.check(); err != nil {
		return nil, Stats{}, err
	}
	if j.Map == nil || j.Reduce == nil {
		return nil, Stats{}, errNoPhases
	}
	if j.Config.Faults != nil || j.Spill != nil || j.Config.MaxShuffleBytes > 0 || j.Config.ReferenceShuffle ||
		j.Config.ReduceTasks > maxFleetPartitions {
		return nil, Stats{}, errors.New("mapreduce: fleet mode excludes Faults/Spill/External/ReferenceShuffle and over 65536 reduce tasks")
	}
	conf := *fc
	conf.Proto = MRProto
	if conf.Workers <= 0 {
		return nil, Stats{}, errors.New("mapreduce: fleet needs FleetConfig.Workers >= 1")
	}
	if !conf.Obs.Enabled() {
		conf.Obs = j.Config.Obs
	}
	co, err := pnet.NewCoordinator(conf)
	if err != nil {
		return nil, Stats{}, err
	}
	defer co.Close()
	f := &fleetExec{co: co, sink: j.Config.Obs, ranks: make([]attempt, conf.Workers), lost: make([]bool, conf.Workers)}
	out, stats, err := j.execute(ctx, splitInputs(inputs, j.Config.MapTasks), len(inputs), SpecConfig{},
		&fleetRun[I, K, V, O]{f, w})
	if err == nil {
		co.Stop(pnet.Msg{Type: mrStop})
	}
	return out, stats.Stats, err
}
