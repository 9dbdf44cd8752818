package mapreduce

// spill.go makes map-task output durable (the Parsl-style task
// checkpointing of PR 5): with Job.Spill set, every completed map
// task's sorted runs are persisted as one CRC-framed ckpt file, and a
// re-run of the same job resumes from the first unfinished task —
// valid spill files short-circuit their tasks, everything else
// re-executes. Because runs are persisted after sorting and
// combining, a resumed job feeds byte-identical runs into the shuffle
// merge and therefore produces byte-identical output (the merge is
// deterministic given its input runs).
//
// Resume assumes the re-run presents the same inputs and Config (task
// count, partitioner, reduce fan-out): a spill whose epoch or
// partition count disagrees is ignored, but content-level divergence
// is the caller's contract, exactly as in Hadoop task re-execution.

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"repro/internal/ckpt"
)

// Spill configures durable map-task output. Dir receives one file per
// map task (<name>-map-<task>.ckpt), its runs written with the Codec.
type Spill[K cmp.Ordered, V any] struct {
	Dir  string
	Name string // file prefix; defaults to "job"
	Codec[K, V]
}

// NewStringIntSpill returns the ready-made spill config for
// string-keyed integer-valued jobs (word count and friends).
func NewStringIntSpill(dir, name string) *Spill[string, int] {
	return &Spill[string, int]{Dir: dir, Name: name, Codec: stringIntCodec}
}

const spillVersion = 1

func (s *Spill[K, V]) path(task int) string {
	return jobFile(s.Dir, s.Name, fmt.Sprintf("-map-%04d.ckpt", task))
}

// save persists one completed map task's per-partition runs. Layout
// after the ckpt frame (epoch = task index):
//
//	u32 spillVersion | u32 nparts | u64 emitted
//	per partition: u32 nkeys | keys... | u32 noffs | offs (u32 each) |
//	               u32 nvals | vals...
//
// prefs are not stored — they are a pure function of the keys
// (keyPrefix) and are recomputed on load.
func (s *Spill[K, V]) save(task int, parts []run[K, V], emitted int) error {
	buf := make([]byte, 0, 1024)
	buf = binary.LittleEndian.AppendUint32(buf, spillVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(parts)))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(emitted))
	for p := range parts {
		buf = s.appendRun(buf, &parts[p])
	}
	return ckpt.WriteFile(s.path(task), uint64(task), buf)
}

// load reads a task's spill if present and valid. Any defect —
// missing file, CRC mismatch, wrong task epoch, partition-count
// mismatch, codec error — yields ok=false and the task simply
// re-executes; durable resume never turns a bad file into a failure.
func (s *Spill[K, V]) load(task, nparts int) (parts []run[K, V], emitted int, ok bool) {
	epoch, buf, err := ckpt.ReadFile(s.path(task))
	if err != nil || epoch != uint64(task) {
		return nil, 0, false
	}
	if len(buf) < 16 || binary.LittleEndian.Uint32(buf) != spillVersion || int(binary.LittleEndian.Uint32(buf[4:])) != nparts {
		return nil, 0, false
	}
	emitted = int(binary.LittleEndian.Uint64(buf[8:]))
	buf = buf[16:]
	parts = make([]run[K, V], nparts)
	for p := range parts {
		if buf, err = s.readRun(&parts[p], buf); err != nil {
			return nil, 0, false
		}
	}
	return parts, emitted, len(buf) == 0
}
