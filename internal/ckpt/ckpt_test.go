package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/obs"
)

func TestFrameRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	payload := []byte("hello snapshot")
	if err := WriteFile(path, 42, payload); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	epoch, got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if epoch != 42 || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: epoch=%d payload=%q", epoch, got)
	}
}

func TestFrameRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.ckpt")
	if err := WriteFile(path, 1, []byte("payload under test")); err != nil {
		t.Fatal(err)
	}
	buf, _ := os.ReadFile(path)

	cases := map[string][]byte{
		"empty":       {},
		"truncHeader": buf[:10],
		"truncBody":   buf[:len(buf)-6],
		"badMagic":    append([]byte("JUNK"), buf[4:]...),
		"flippedByte": func() []byte {
			b := append([]byte(nil), buf...)
			b[snapshot.headerLen()+3] ^= 0xff
			return b
		}(),
		"flippedCRC": func() []byte {
			b := append([]byte(nil), buf...)
			b[len(b)-1] ^= 0xff
			return b
		}(),
	}
	for name, b := range cases {
		p := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, _, err := ReadFile(p); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
}

// TestFramePayloadBound: a header claiming MaxPayload bytes is a
// frame cut short, one claiming a byte more is corrupt, at either
// length width.
func TestFramePayloadBound(t *testing.T) {
	for _, f := range []Format{snapshot, {Magic: "TEST", Version: 3, TagLen: 1, LenLen: 4}} {
		for n, want := range map[uint64]error{MaxPayload: ErrTruncated, MaxPayload + 1: ErrCorrupt} {
			head := append([]byte(f.Magic), 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(head[4:], f.Version)
			head = appendLE(appendLE(head, 9, f.TagLen), n, f.LenLen)
			if _, _, err := f.Read(bytes.NewReader(head), nil); !errors.Is(err, want) {
				t.Errorf("%s header claiming %d bytes: err = %v, want %v", f.Magic, n, err, want)
			}
		}
	}
}

func TestStoreSaveLoadAndGC(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	s, err := Open(dir, "grid", WithKeep(2), WithObs(obs.Sink{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	for e := uint64(1); e <= 5; e++ {
		if err := s.Save(e*10, []byte{byte(e)}); err != nil {
			t.Fatalf("Save(%d): %v", e*10, err)
		}
	}
	epochs, err := s.Epochs()
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 2 || epochs[0] != 40 || epochs[1] != 50 {
		t.Fatalf("manifest after GC: %v", epochs)
	}
	// GC must actually delete the files, not only drop manifest rows.
	matches, _ := filepath.Glob(filepath.Join(dir, "grid.*.ckpt"))
	if len(matches) != 2 {
		t.Fatalf("files on disk after GC: %v", matches)
	}
	epoch, payload, ok, err := s.Load()
	if err != nil || !ok {
		t.Fatalf("Load: ok=%v err=%v", ok, err)
	}
	if epoch != 50 || !bytes.Equal(payload, []byte{5}) {
		t.Fatalf("Load newest: epoch=%d payload=%v", epoch, payload)
	}
	if got := reg.Counter("ckpt.gc_removed").Value(); got != 3 {
		t.Fatalf("ckpt.gc_removed = %d, want 3", got)
	}
	if got := reg.Counter("ckpt.saves").Value(); got != 5 {
		t.Fatalf("ckpt.saves = %d, want 5", got)
	}
}

// The satellite-6 contract: a truncated or corrupt latest snapshot
// must fall back to the previous valid epoch, not fail the resume.
func TestCorruptLatestFallsBack(t *testing.T) {
	for _, mode := range []string{"truncate", "flip", "missing"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			s, err := Open(dir, "run", WithObs(obs.Sink{Metrics: reg}))
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Save(7, []byte("epoch seven")); err != nil {
				t.Fatal(err)
			}
			if err := s.Save(9, []byte("epoch nine")); err != nil {
				t.Fatal(err)
			}
			latest := s.snapshotPath(9)
			switch mode {
			case "truncate":
				if err := os.Truncate(latest, 9); err != nil {
					t.Fatal(err)
				}
			case "flip":
				buf, _ := os.ReadFile(latest)
				buf[len(buf)/2] ^= 0xff
				if err := os.WriteFile(latest, buf, 0o644); err != nil {
					t.Fatal(err)
				}
			case "missing":
				if err := os.Remove(latest); err != nil {
					t.Fatal(err)
				}
			}
			epoch, payload, ok, err := s.Load()
			if err != nil || !ok {
				t.Fatalf("Load: ok=%v err=%v", ok, err)
			}
			if epoch != 7 || string(payload) != "epoch seven" {
				t.Fatalf("fallback: epoch=%d payload=%q", epoch, payload)
			}
			if got := reg.Counter("ckpt.fallbacks").Value(); got != 1 {
				t.Fatalf("ckpt.fallbacks = %d, want 1", got)
			}
		})
	}
}

func TestLoadEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir(), "fresh")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok, err := s.Load(); ok || err != nil {
		t.Fatalf("empty store: ok=%v err=%v", ok, err)
	}
}

func TestLoadAllCorruptErrors(t *testing.T) {
	s, err := Open(t.TempDir(), "run", WithKeep(2))
	if err != nil {
		t.Fatal(err)
	}
	s.Save(1, []byte("a"))
	s.Save(2, []byte("b"))
	os.Truncate(s.snapshotPath(1), 3)
	os.Truncate(s.snapshotPath(2), 3)
	if _, _, ok, err := s.Load(); ok || err == nil {
		t.Fatalf("all-corrupt store: ok=%v err=%v", ok, err)
	}
}

// A kill between the snapshot rename and the manifest rename leaves
// an orphan file; the next Save must sweep it.
func TestSweepOrphans(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "run")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(1, []byte("one")); err != nil {
		t.Fatal(err)
	}
	orphan := s.snapshotPath(99)
	if err := WriteFile(orphan, 99, []byte("orphan")); err != nil {
		t.Fatal(err)
	}
	if err := s.Save(2, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan not swept: %v", err)
	}
	// The orphan must never influence Load even before the sweep.
	epoch, _, ok, err := s.Load()
	if err != nil || !ok || epoch != 2 {
		t.Fatalf("Load after sweep: epoch=%d ok=%v err=%v", epoch, ok, err)
	}
}

func TestCheckpointerCadence(t *testing.T) {
	s, err := Open(t.TempDir(), "run")
	if err != nil {
		t.Fatal(err)
	}
	c := NewCheckpointer(s, 10, true)
	var fired []int64
	for pos := int64(1); pos <= 35; pos++ {
		if c.Due(pos) {
			fired = append(fired, pos)
			if err := c.Save(uint64(pos), []byte{byte(pos)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := []int64{10, 20, 30}
	if len(fired) != len(want) {
		t.Fatalf("fired at %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired at %v, want %v", fired, want)
		}
	}

	// A fresh Checkpointer resuming from epoch 30 owes the next
	// snapshot at 40, not immediately.
	c2 := NewCheckpointer(s, 10, true)
	epoch, _, ok, err := c2.Load()
	if err != nil || !ok || epoch != 30 {
		t.Fatalf("Load: epoch=%d ok=%v err=%v", epoch, ok, err)
	}
	if c2.Due(31) {
		t.Fatal("Due fired immediately after resume")
	}
	if !c2.Due(40) {
		t.Fatal("Due(40) should fire after resuming at 30")
	}

	// resume=false ignores existing snapshots.
	c3 := NewCheckpointer(s, 10, false)
	if _, _, ok, _ := c3.Load(); ok {
		t.Fatal("resume=false returned a snapshot")
	}

	// nil Checkpointer is inert.
	var nilC *Checkpointer
	if nilC.Due(100) {
		t.Fatal("nil Due fired")
	}
	if _, _, ok, err := nilC.Load(); ok || err != nil {
		t.Fatal("nil Load not inert")
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(0xdeadbeef)
	e.U64(1 << 60)
	e.I64(-12345)
	e.F64(3.14159)
	e.Str("hello")
	e.U32s([]uint32{1, 2, 3})
	e.I32s([]int32{-1, 0, 9})

	d := NewDec(e.Bytes())
	if d.U8() != 7 || d.U32() != 0xdeadbeef || d.U64() != 1<<60 || d.I64() != -12345 {
		t.Fatal("integer round trip")
	}
	if d.F64() != 3.14159 || d.Str() != "hello" {
		t.Fatal("float/string round trip")
	}
	if u := d.U32s(); len(u) != 3 || u[2] != 3 {
		t.Fatal("u32s round trip")
	}
	if i := d.I32s(); len(i) != 3 || i[0] != -1 {
		t.Fatal("i32s round trip")
	}
	if err := d.Err(); err != nil {
		t.Fatalf("Err: %v", err)
	}
	if len(d.Rest()) != 0 {
		t.Fatal("trailing bytes")
	}

	// Truncated payloads surface through Err, never panic.
	for cut := 0; cut < len(e.Bytes()); cut += 5 {
		d := NewDec(e.Bytes()[:cut])
		d.U8()
		d.U32()
		d.U64()
		d.I64()
		d.F64()
		d.Str()
		d.U32s()
		d.I32s()
		if cut < len(e.Bytes()) && d.Err() == nil {
			t.Fatalf("cut=%d: truncation undetected", cut)
		}
	}
}

// FuzzReadSnapshot opens arbitrary bytes as a PCK1 snapshot file. No
// input may panic or allocate much more than its own size — a length
// claim costs at most FirstChunk. A rejected file fails with exactly
// one of ErrTruncated and ErrCorrupt, and an accepted one re-encodes
// to the bytes it was read from. testdata/fuzz/FuzzReadSnapshot holds
// the crafted inputs.
func FuzzReadSnapshot(f *testing.F) {
	for epoch, payload := range [][]byte{nil, []byte("epoch seven")} {
		b, err := snapshot.Append(nil, uint64(epoch), payload)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, b []byte) {
		path := filepath.Join(dir, "in.ckpt")
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		epoch, payload, err := ReadFile(path)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20+4*uint64(len(b)) {
			t.Fatalf("a %d-byte file allocated %d bytes", len(b), grew)
		}
		if err != nil {
			if errors.Is(err, ErrTruncated) == errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %q does not carry exactly one named error", err)
			}
			return
		}
		if out, err := snapshot.Append(nil, epoch, payload); err != nil || !bytes.Equal(out, b) {
			t.Fatalf("accepted snapshot re-encodes to %x, read from %x", out, b)
		}
	})
}
