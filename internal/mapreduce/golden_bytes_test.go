package mapreduce

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"io"
	gonet "net"
	"os"
	"path/filepath"
	"testing"

	pnet "repro/internal/net"
)

// wireBytes sends msgs over a real unix-socket Conn, closes it, and
// returns every byte that reached the other end: the PFR1 frames of
// msgs followed by the close marker.
func wireBytes(t *testing.T, msgs ...pnet.Msg) []byte {
	t.Helper()
	dir, err := os.MkdirTemp("", "wire")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	addr := filepath.Join(dir, "s")
	ln, err := gonet.Listen("unix", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	tr, _ := pnet.New("unix")
	conn, err := tr.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(raw)
		got <- b
	}()
	for _, m := range msgs {
		if err := conn.Send(m); err != nil {
			t.Fatal(err)
		}
	}
	conn.Close()
	return <-got
}

// TestFleetFrameGolden pins the PFR1 bytes of a fleet word count on a
// real socket — map task 1's frame and its reply, then reduce
// partition 0's frame and its reply. The reduce SHA-256 was recorded
// before the run and frame codecs were merged; the map one when
// mapreduce/3 prefixed each run in the map reply with its length.
func TestFleetFrameGolden(t *testing.T) {
	want := map[string]string{
		"map":    "3a6b17efbed8eef48cdb5c9c21eb1d6be5b5dccd072b81872e8e37a0b9148a7e",
		"reduce": "431f054dbf0602c198f8ad46cf82cbe67d46ea16ea401855d2080902935fd744",
	}
	const nReduce = 3
	job := wordCountJob(Config[string]{MapTasks: 4, ReduceTasks: nReduce})
	splits := splitInputs(fleetCorpus(40), 4)
	f := &fleetRun[string, string, int, KV[string, int]]{fleetExec: &fleetExec{}, w: StringIntWire()}
	got := map[string][]byte{}

	md := &dispatcher[mapResult[string, int]]{}
	f.maps(md, splits, nReduce)
	mapOut := make([][]run[string, int], len(splits))
	for task := range splits {
		m := f.msg(task)
		reply, err := job.taskServer(f.w).serve(context.Background(), m)
		if err != nil {
			t.Fatal(err)
		}
		r, err := md.decode(task, reply.Payload[4:])
		if err != nil {
			t.Fatal(err)
		}
		mapOut[task] = r.runs
		if task == 1 {
			got["map"] = wireBytes(t, m, reply)
		}
	}

	rd := &dispatcher[partResult[KV[string, int]]]{}
	f.reduces(rd, mapOut, nReduce)
	m := f.msg(0)
	reply, err := job.taskServer(f.w).serve(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	got["reduce"] = wireBytes(t, m, reply)

	for name, b := range got {
		sum := sha256.Sum256(b)
		if h := hex.EncodeToString(sum[:]); h != want[name] {
			t.Errorf("%s frames: sha256 %s, want %s", name, h, want[name])
		}
	}
}

// testdata/spill holds the spill files a word count wrote before the
// key/value codecs were merged: the files this tree writes must match
// them byte for byte, and a job must resume from them.
const spillGoldenDir = "testdata/spill"

func spillGoldenInputs() []string { return spillCorpus(3, 48) }

// TestSpillFileGolden: every map task's spill file is byte-identical to
// the checked-in one.
func TestSpillFileGolden(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := spillWordCount(NewStringIntSpill(dir, "golden")).Run(spillGoldenInputs()); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	if len(files) != 8 {
		t.Fatalf("%d spill files, want one per map task", len(files))
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(spillGoldenDir, filepath.Base(f)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b, want) {
			t.Errorf("%s differs from the checked-in spill file", filepath.Base(f))
		}
	}
}

// TestSpillResumesFromCheckedInFiles: a job given the checked-in spill
// files resumes every map task from them and returns what a run without
// spill returns.
func TestSpillResumesFromCheckedInFiles(t *testing.T) {
	want, _, err := spillWordCount(nil).Run(spillGoldenInputs())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	files, _ := filepath.Glob(filepath.Join(spillGoldenDir, "*.ckpt"))
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(f)), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, stats, err := spillWordCount(NewStringIntSpill(dir, "golden")).Run(spillGoldenInputs())
	if err != nil {
		t.Fatal(err)
	}
	if stats.MapTasksResumed != 8 || len(files) != 8 {
		t.Fatalf("resumed %d of %d checked-in map tasks, want 8", stats.MapTasksResumed, len(files))
	}
	if len(got) != len(want) {
		t.Fatalf("%d outputs, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("output[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
