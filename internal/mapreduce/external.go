package mapreduce

// external.go makes the sorted-run shuffle out-of-core. The PR-4
// pipeline holds every map task's runs in RAM until the reduce phase
// merges them, so the largest job a machine can shuffle is bounded by
// memory. With Config.MaxShuffleBytes set (and Job.External supplying
// the key/value Codec), the map phase keeps an approximate
// resident-bytes account of the buffered runs; a completed task that
// pushes the account past the budget writes its per-partition runs to
// disk instead of retaining them, as run files of ckpt frames, and the
// reduce phase merges a partition's mixture of in-memory and on-disk
// runs with mergeRuns at a bounded fan-in, over as many passes as it
// takes (intermediate merged runs are re-spilled until at most
// Config.MergeFanIn sources remain, then the final pass streams groups
// straight into the reducer).
//
// The external path is byte-identical to the in-memory one: runs hold
// the same sorted span-compressed content on disk as in RAM, the merge
// drains equal keys in map-task order (multi-pass merges always take a
// contiguous prefix of task-ordered sources, so the ordering argument
// of merge.go survives re-spilling), no combiner is re-applied during
// intermediate merges, and group ordinals stay the ascending-key
// per-partition ordinals deterministic fault injection is keyed on.
// The randomized shuffle oracle enforces all of this.
//
// Run file format (scratch files — no fsync, deleted as they are
// consumed): a stream of ckpt frames with magic "PRN1", version
// runVersion and a one-byte tag. A runSpans frame carries a chunk of
// whole spans as an appendRun encoding, so a chunk decodes into a run
// of its own; a runEnd frame closes the file. A file without the end
// marker reads as truncated (ckpt.ErrTruncated), and a bad magic or
// version, a CRC mismatch or a chunk that does not decode as corrupt
// (ckpt.ErrCorrupt) — an external merge never turns a bad file into
// silent wrong output.

import (
	"cmp"
	"errors"
	"fmt"
	"os"
	"sync/atomic"
	"unsafe"

	"repro/internal/ckpt"
)

// External configures the out-of-core shuffle: Dir receives the
// spilled run files (scratch — written without fsync and removed as
// the merge consumes them), written with the Codec. It only takes
// effect together with Config.MaxShuffleBytes.
type External[K cmp.Ordered, V any] struct {
	Dir  string
	Name string // file prefix; defaults to "job"
	Codec[K, V]
}

// NewStringIntExternal returns the ready-made external-shuffle config
// for string-keyed integer-valued jobs (word count and friends).
func NewStringIntExternal(dir, name string) *External[string, int] {
	return &External[string, int]{Dir: dir, Name: name, Codec: stringIntCodec}
}

const (
	runVersion = 2
	// runChunk is a chunk's resident bytes, as residentBytes estimates
	// them; one huge span may exceed it.
	runChunk     = 64 << 10
	defaultFanIn = 16
)

// runFormat is the PRN1 frame format; runEnd and runSpans are its tags.
var runFormat = ckpt.Format{Magic: "PRN1", Version: runVersion, TagLen: 1, LenLen: 4}

const (
	runEnd   = 0
	runSpans = 1
)

// extShuffle is the per-execution state of the out-of-core shuffle:
// the resident-bytes account the map phase debits against, and the
// per-(task, partition) paths of spilled run files.
type extShuffle[K cmp.Ordered, V any] struct {
	cfg    *External[K, V]
	budget int64
	fanIn  int

	resident     atomic.Int64
	files        [][]string // [task][partition] -> run file path, "" if in memory/empty
	spilledRuns  atomic.Int64
	spilledBytes atomic.Int64
	extraPasses  atomic.Int64 // intermediate (non-final) merge passes
}

func newExtShuffle[K cmp.Ordered, V any](cfg *External[K, V], budget int64, fanIn, tasks, parts int) (*extShuffle[K, V], error) {
	if err := prepareDir("External", cfg.Dir, &cfg.Codec); err != nil {
		return nil, err
	}
	if fanIn < 2 {
		fanIn = defaultFanIn
	}
	files := make([][]string, tasks)
	for t := range files {
		files[t] = make([]string, parts)
	}
	return &extShuffle[K, V]{cfg: cfg, budget: budget, fanIn: fanIn, files: files}, nil
}

// admit charges task t's completed runs against the resident budget.
// If the account overflows, the task's non-empty partition runs are
// written to disk and dropped from memory (parts[p] zeroed), keeping
// resident bytes bounded by roughly budget plus one task's output.
// Which tasks spill depends on completion order, but the merge output
// does not — a run's content is the same on disk as in RAM.
func (x *extShuffle[K, V]) admit(task int, parts []run[K, V]) error {
	size := runsResidentBytes(parts)
	if x.resident.Add(size) <= x.budget {
		return nil
	}
	x.resident.Add(-size)
	for p := range parts {
		r := &parts[p]
		if len(r.keys) == 0 {
			continue
		}
		path := jobFile(x.cfg.Dir, x.cfg.Name, fmt.Sprintf("-t%04d-p%03d.run", task, p))
		n, err := writeRunFile(&x.cfg.Codec, path, r)
		if err != nil {
			return fmt.Errorf("mapreduce: map task %d partition %d spill: %w", task, p, err)
		}
		x.files[task][p] = path
		x.spilledRuns.Add(1)
		x.spilledBytes.Add(n)
		*r = run[K, V]{}
	}
	return nil
}

// hasDisk reports whether partition p has at least one on-disk run.
func (x *extShuffle[K, V]) hasDisk(p int) bool {
	for t := range x.files {
		if x.files[t][p] != "" {
			return true
		}
	}
	return false
}

// cleanup removes any spilled files still on disk (merge errors leave
// partially consumed inputs behind). Best effort.
func (x *extShuffle[K, V]) cleanup() {
	for t := range x.files {
		for _, path := range x.files[t] {
			if path != "" {
				os.Remove(path)
			}
		}
	}
}

// runsResidentBytes estimates the resident footprint of a task's runs:
// array backing for keys, prefixes, offsets, and values, plus string
// bytes where K or V is a string. An estimate is all the budget needs
// — the point is bounding RAM to the right order, not byte accounting.
func runsResidentBytes[K cmp.Ordered, V any](parts []run[K, V]) int64 {
	total := int64(0)
	for i := range parts {
		total += residentBytes(parts[i].keys, parts[i].vals)
	}
	return total
}

// residentBytes is the estimate for one run's keys and values.
func residentBytes[K cmp.Ordered, V any](keys []K, vals []V) int64 {
	var kz K
	var vz V
	keyFixed := int64(unsafe.Sizeof(kz)) + 12 // + pref (8) + off (4)
	total := int64(len(keys))*keyFixed + int64(len(vals))*int64(unsafe.Sizeof(vz))
	if ks, ok := any(keys).([]string); ok {
		for _, s := range ks {
			total += int64(len(s))
		}
	}
	if vs, ok := any(vals).([]string); ok {
		for _, s := range vs {
			total += int64(len(s))
		}
	}
	return total
}

// ---- run files -----------------------------------------------------

// runWriter streams spans into a run file: once its chunk holds
// runChunk resident bytes, the chunk is written as one frame, so a
// merge source holds about that much whatever the key and value sizes.
type runWriter[K cmp.Ordered, V any] struct {
	codec   *Codec[K, V]
	f       *os.File
	chunk   run[K, V]
	size    int64 // the chunk's resident bytes
	payload []byte
	frame   []byte
	bytes   int64
}

func createRun[K cmp.Ordered, V any](c *Codec[K, V], path string) (*runWriter[K, V], error) {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &runWriter[K, V]{codec: c, f: f}, nil
}

// add appends one (key, values) span to the chunk.
func (w *runWriter[K, V]) add(key K, vals []V) error {
	c := &w.chunk
	if len(c.offs) == 0 {
		c.offs = append(c.offs, 0)
	}
	c.keys = append(c.keys, key)
	c.vals = append(c.vals, vals...)
	c.offs = append(c.offs, int32(len(c.vals)))
	if w.size += residentBytes(c.keys[len(c.keys)-1:], vals); w.size < runChunk {
		return nil
	}
	return w.flush()
}

// flush writes a non-empty chunk as one runSpans frame.
func (w *runWriter[K, V]) flush() error {
	if len(w.chunk.keys) == 0 {
		return nil
	}
	w.payload = w.codec.appendRun(w.payload[:0], &w.chunk)
	w.chunk = run[K, V]{keys: w.chunk.keys[:0], offs: w.chunk.offs[:0], vals: w.chunk.vals[:0]}
	w.size = 0
	return w.write(runSpans, w.payload)
}

func (w *runWriter[K, V]) write(tag uint64, payload []byte) error {
	frame, err := runFormat.Append(w.frame[:0], tag, payload)
	if err != nil {
		return err
	}
	w.frame = frame
	w.bytes += int64(len(frame))
	_, err = w.f.Write(frame)
	return err
}

// close finishes the file with the last chunk and the end marker. If
// err (the producer's failure) is set, or finishing fails, the file is
// removed instead, and the error returned.
func (w *runWriter[K, V]) close(err error) error {
	if err == nil {
		err = w.flush()
	}
	if err == nil {
		err = w.write(runEnd, nil)
	}
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(w.f.Name())
	}
	return err
}

// writeRunFile spills one in-memory run to path, returning the file
// size in bytes.
func writeRunFile[K cmp.Ordered, V any](c *Codec[K, V], path string, r *run[K, V]) (int64, error) {
	w, err := createRun(c, path)
	if err != nil {
		return 0, err
	}
	for i := 0; i < len(r.keys) && err == nil; i++ {
		err = w.add(r.keys[i], r.vals[r.offs[i]:r.offs[i+1]])
	}
	return w.bytes, w.close(err)
}

// runFile is a run file open for the merge, read one chunk at a time.
type runFile[K cmp.Ordered, V any] struct {
	codec *Codec[K, V]
	path  string
	f     *os.File
	frame []byte // the last chunk frame's payload, whose array the next reuses
}

// openRun opens the run file at path as a run that holds none of its
// spans yet: the merge refills it chunk by chunk (cursor.fill).
func (c *Codec[K, V]) openRun(path string) (*run[K, V], error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("mapreduce: external run: %w", err)
	}
	return &run[K, V]{src: &runFile[K, V]{codec: c, path: path, f: f}}, nil
}

// next replaces r's spans with the file's next chunk; false at the end
// marker. Every defect is an error naming the file.
func (s *runFile[K, V]) next(r *run[K, V]) (bool, error) {
	tag, payload, err := runFormat.Read(s.f, s.frame)
	s.frame = payload
	switch {
	case err != nil:
	case tag == runEnd:
		if n, _ := s.f.Read(make([]byte, 1)); n == 0 {
			return false, nil
		}
		err = fmt.Errorf("%w: bytes after the end marker", ckpt.ErrCorrupt)
	case tag != runSpans:
		err = fmt.Errorf("%w: frame tag %d", ckpt.ErrCorrupt, tag)
	default:
		// The merge has copied out what it needs of the last chunk, so
		// the new one reuses its arrays.
		rest, derr := s.codec.readRun(r, payload)
		if derr == nil && len(rest) > 0 {
			derr = errors.New("bytes after the chunk")
		}
		if derr == nil {
			return true, nil
		}
		err = fmt.Errorf("%w: %w", ckpt.ErrCorrupt, derr)
	}
	return false, fmt.Errorf("mapreduce: external run %s: %w", s.path, err)
}

// remove closes and deletes the file.
func (s *runFile[K, V]) remove() {
	s.f.Close()
	os.Remove(s.path)
}

// ---- external merge ------------------------------------------------

// mergePartition runs partition p's external merge over the
// task-ordered mixture of in-memory runs and run files. While more
// than fanIn runs remain, the first fanIn are merged into a new run
// file that replaces them (a contiguous task prefix, so the ordering
// argument of merge.go survives), and the final pass streams groups
// into group. It returns pairs and groups delivered, the initial run
// count, and the total number of merge passes (intermediate + final).
func (x *extShuffle[K, V]) mergePartition(p int, mapOut [][]run[K, V], group groupFunc[K, V]) (pairs, groups, nRuns, passes int, err error) {
	var runs []*run[K, V]
	// Consumed or not, the partition's run files go once it is merged.
	defer func() {
		for _, r := range runs {
			if r.src != nil {
				r.src.remove()
			}
		}
	}()
	for t := range mapOut {
		if path := x.files[t][p]; path != "" {
			r, err := x.cfg.openRun(path)
			if err != nil {
				return 0, 0, 0, 0, err
			}
			runs = append(runs, r)
		} else if p < len(mapOut[t]) && len(mapOut[t][p].keys) > 0 {
			runs = append(runs, &mapOut[t][p])
		}
	}
	nRuns = len(runs)
	for seq := 0; len(runs) > x.fanIn; seq++ {
		path := jobFile(x.cfg.Dir, x.cfg.Name, fmt.Sprintf("-p%03d-m%04d.run", p, seq))
		w, err := createRun(&x.cfg.Codec, path)
		if err != nil {
			return 0, 0, nRuns, passes, err
		}
		_, _, err = mergeRuns(runs[:x.fanIn], func(key K, values []V, _ int) error {
			return w.add(key, values)
		})
		if err := w.close(err); err != nil {
			return 0, 0, nRuns, passes, err
		}
		x.spilledBytes.Add(w.bytes)
		merged, err := x.cfg.openRun(path)
		if err != nil {
			return 0, 0, nRuns, passes, err
		}
		for _, r := range runs[:x.fanIn] {
			if r.src != nil {
				r.src.remove()
			}
		}
		runs = append([]*run[K, V]{merged}, runs[x.fanIn:]...)
		passes++
		x.extraPasses.Add(1)
	}
	pairs, groups, err = mergeRuns(runs, group)
	return pairs, groups, nRuns, passes + 1, err
}
