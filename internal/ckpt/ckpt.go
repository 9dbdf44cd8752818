// Package ckpt is the durable checkpoint subsystem: versioned binary
// snapshots in CRC-32 framed files, written to a temp file and
// atomically renamed, with a manifest tracking the valid epochs. A
// Store owns one named snapshot family inside a directory; a
// Checkpointer adds the cadence policy ("save every N iterations /
// every D of virtual time") that long-running engines consult inside
// their hot loops.
//
// Durability protocol (the part chaos-tested by cmd/chaos):
//
//  1. the snapshot is written to <name>.<epoch>.ckpt.tmp, fsynced,
//     and renamed over <name>.<epoch>.ckpt;
//  2. the manifest listing valid epochs is rewritten the same way
//     (temp + fsync + rename), so a SIGKILL at any instant leaves
//     either the old manifest (pointing at the previous epoch) or the
//     new one (pointing at a fully-written snapshot) — never a
//     manifest that references a partial file;
//  3. epochs the manifest no longer lists are deleted (keep-last-K
//     garbage collection), and orphan snapshot files from kills
//     between steps 1 and 2 are swept on the next Save.
//
// Load walks the manifest newest-first and falls back to the previous
// epoch when the latest file is truncated or fails its CRC, so a torn
// write costs one checkpoint interval of progress, never the run.
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"repro/internal/obs"
)

// Version is the snapshot frame version written by this package.
const Version uint32 = 1

// snapshot is the PCK1 file format: one frame whose tag is the epoch.
var snapshot = Format{Magic: "PCK1", Version: Version, TagLen: 8, LenLen: 8}

// WriteFile atomically writes one framed snapshot: temp file in the
// same directory, fsync, rename, directory fsync. After it returns
// the file is durable; if the process dies mid-call the destination
// is either absent or holds its previous complete content.
func WriteFile(path string, epoch uint64, payload []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if err := snapshot.Write(f, epoch, payload); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: writing %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("ckpt: syncing %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: closing %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// ReadFile reads and verifies one framed snapshot, returning its
// epoch and payload. A file that ends early is ErrTruncated; a bad
// magic or version, a CRC mismatch or bytes after the frame are
// ErrCorrupt. Callers treat any error as "this epoch is unusable" and
// fall back.
func ReadFile(path string) (epoch uint64, payload []byte, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, nil, fmt.Errorf("ckpt: %w", err)
	}
	defer f.Close()
	// The file's size bounds the frame, so one buffer of that size
	// (at most a largest frame body) holds it: one allocation, of
	// bytes that exist.
	var buf []byte
	if fi, err := f.Stat(); err == nil {
		buf = make([]byte, 0, min(fi.Size(), MaxPayload+4))
	}
	if epoch, payload, err = snapshot.Read(f, buf); err != nil {
		return 0, nil, fmt.Errorf("ckpt: %s: %w", path, err)
	}
	if n, _ := f.Read(make([]byte, 1)); n > 0 {
		return 0, nil, fmt.Errorf("ckpt: %s: %w: bytes after the frame", path, ErrCorrupt)
	}
	return epoch, payload, nil
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("ckpt: syncing %s: %w", dir, err)
	}
	return nil
}

// DefaultKeep is how many epochs a Store retains unless WithKeep
// overrides it.
const DefaultKeep = 2

// Store owns the snapshot family <dir>/<name>.<epoch>.ckpt plus its
// manifest <dir>/<name>.manifest. One Store per logical run state;
// different substrates sharing a -checkpoint directory use distinct
// names. Methods are not concurrency-safe — each substrate saves from
// a single goroutine (its iteration or commit loop).
type Store struct {
	dir   string
	name  string
	keep  int
	sink  obs.Sink
	track obs.TrackID

	saves, saveBytes, loads, fallbacks, gcRemoved *obs.Counter
}

// StoreOption configures Open.
type StoreOption func(*Store)

// WithKeep sets how many recent epochs survive garbage collection
// (minimum 1).
func WithKeep(k int) StoreOption {
	return func(s *Store) {
		if k >= 1 {
			s.keep = k
		}
	}
}

// WithObs attaches metrics counters (ckpt.*) and save/load spans.
func WithObs(sink obs.Sink) StoreOption {
	return func(s *Store) { s.sink = sink }
}

// Open creates dir if needed and returns a Store for the named
// snapshot family.
func Open(dir, name string, opts ...StoreOption) (*Store, error) {
	if name == "" || strings.ContainsAny(name, "/.") {
		return nil, fmt.Errorf("ckpt: invalid store name %q", name)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Store{dir: dir, name: name, keep: DefaultKeep}
	for _, o := range opts {
		o(s)
	}
	if m := s.sink.Metrics; m != nil {
		s.saves = m.Counter("ckpt.saves")
		s.saveBytes = m.Counter("ckpt.save_bytes")
		s.loads = m.Counter("ckpt.loads")
		s.fallbacks = m.Counter("ckpt.fallbacks")
		s.gcRemoved = m.Counter("ckpt.gc_removed")
	}
	if t := s.sink.Tracer; t != nil {
		s.track = t.Track("ckpt", 1, name)
	}
	return s, nil
}

// Dir returns the store's directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) snapshotPath(epoch uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s.%d.ckpt", s.name, epoch))
}

func (s *Store) manifestPath() string {
	return filepath.Join(s.dir, s.name+".manifest")
}

// Epochs returns the manifest's valid epochs in ascending order (nil
// if no manifest exists yet).
func (s *Store) Epochs() ([]uint64, error) {
	buf, err := os.ReadFile(s.manifestPath())
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	lines := strings.Fields(string(buf))
	if len(lines) == 0 || lines[0] != "ckpt-manifest-v1" {
		return nil, fmt.Errorf("ckpt: %s: not a manifest", s.manifestPath())
	}
	epochs := make([]uint64, 0, len(lines)-1)
	for _, l := range lines[1:] {
		e, err := strconv.ParseUint(l, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %s: bad epoch %q", s.manifestPath(), l)
		}
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	return epochs, nil
}

func (s *Store) writeManifest(epochs []uint64) error {
	var b strings.Builder
	b.WriteString("ckpt-manifest-v1\n")
	for _, e := range epochs {
		fmt.Fprintf(&b, "%d\n", e)
	}
	path := s.manifestPath()
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, []byte(b.String()), 0o644); err != nil {
		return fmt.Errorf("ckpt: %w", err)
	}
	if f, err := os.OpenFile(tmp, os.O_RDWR, 0); err == nil {
		f.Sync()
		f.Close()
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("ckpt: %w", err)
	}
	return syncDir(s.dir)
}

// Save durably writes one snapshot, commits it to the manifest, and
// garbage-collects epochs beyond the keep budget (plus any orphan
// files a previous kill left behind).
func (s *Store) Save(epoch uint64, payload []byte) error {
	start := s.sink.Tracer.Now()
	span := s.sink.Log.NextSpan()
	if err := WriteFile(s.snapshotPath(epoch), epoch, payload); err != nil {
		s.sink.Log.EventSpan(obs.LevelError, "ckpt", "save failed: "+err.Error(), span,
			obs.Arg{Key: "epoch", Value: int64(epoch)})
		return err
	}
	epochs, err := s.Epochs()
	if err != nil {
		return err
	}
	keep := epochs
	if i := sort.Search(len(keep), func(i int) bool { return keep[i] >= epoch }); i == len(keep) || keep[i] != epoch {
		keep = append(keep, epoch)
		sort.Slice(keep, func(i, j int) bool { return keep[i] < keep[j] })
	}
	var drop []uint64
	if len(keep) > s.keep {
		drop = append(drop, keep[:len(keep)-s.keep]...)
		keep = keep[len(keep)-s.keep:]
	}
	if err := s.writeManifest(keep); err != nil {
		return err
	}
	removed := int64(0)
	for _, e := range drop {
		if os.Remove(s.snapshotPath(e)) == nil {
			s.gcRemoved.Inc()
			removed++
		}
	}
	removed += s.sweepOrphans(keep)
	s.saves.Inc()
	s.saveBytes.Add(int64(len(payload)))
	if t := s.sink.Tracer; t != nil {
		t.Span(s.track, "ckpt.save", start, t.Now()-start,
			obs.Arg{Key: "epoch", Value: int64(epoch)},
			obs.Arg{Key: "bytes", Value: int64(len(payload))},
			obs.Arg{Key: "span", Value: span})
	}
	s.sink.Log.EventSpan(obs.LevelInfo, "ckpt", "epoch saved", span,
		obs.Arg{Key: "epoch", Value: int64(epoch)},
		obs.Arg{Key: "bytes", Value: int64(len(payload))})
	if removed > 0 {
		s.sink.Log.EventSpan(obs.LevelDebug, "ckpt", "epochs gc'd", span,
			obs.Arg{Key: "removed", Value: removed},
			obs.Arg{Key: "kept", Value: int64(len(keep))})
	}
	return nil
}

// sweepOrphans removes snapshot files for this store's name that the
// manifest does not list (e.g. a kill landed between the snapshot
// rename and the manifest rename, or after GC dropped the manifest
// entry but before the file unlink).
func (s *Store) sweepOrphans(keep []uint64) int64 {
	matches, err := filepath.Glob(filepath.Join(s.dir, s.name+".*.ckpt"))
	if err != nil {
		return 0
	}
	kept := make(map[uint64]bool, len(keep))
	for _, e := range keep {
		kept[e] = true
	}
	prefix := s.name + "."
	removed := int64(0)
	for _, m := range matches {
		base := filepath.Base(m)
		num := strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".ckpt")
		e, err := strconv.ParseUint(num, 10, 64)
		if err != nil || kept[e] {
			continue
		}
		if os.Remove(m) == nil {
			s.gcRemoved.Inc()
			removed++
		}
	}
	return removed
}

// Load returns the newest snapshot that verifies, walking the
// manifest backwards past truncated/corrupt epochs (each skip counts
// as a ckpt.fallbacks). ok is false when the store holds no manifest
// yet (a fresh run); err is non-nil when a manifest exists but no
// listed epoch is readable.
func (s *Store) Load() (epoch uint64, payload []byte, ok bool, err error) {
	start := s.sink.Tracer.Now()
	span := s.sink.Log.NextSpan()
	epochs, err := s.Epochs()
	if err != nil {
		return 0, nil, false, err
	}
	if len(epochs) == 0 {
		return 0, nil, false, nil
	}
	var lastErr error
	for i := len(epochs) - 1; i >= 0; i-- {
		e := epochs[i]
		fe, payload, err := ReadFile(s.snapshotPath(e))
		if err != nil || fe != e {
			if err == nil {
				err = fmt.Errorf("ckpt: %s: frame epoch %d != manifest epoch %d", s.snapshotPath(e), fe, e)
			}
			lastErr = err
			s.fallbacks.Inc()
			continue
		}
		s.loads.Inc()
		if t := s.sink.Tracer; t != nil {
			t.Span(s.track, "ckpt.load", start, t.Now()-start,
				obs.Arg{Key: "epoch", Value: int64(e)},
				obs.Arg{Key: "bytes", Value: int64(len(payload))},
				obs.Arg{Key: "fallbacks", Value: int64(len(epochs) - 1 - i)},
				obs.Arg{Key: "span", Value: span})
		}
		s.sink.Log.EventSpan(obs.LevelInfo, "ckpt", "epoch loaded", span,
			obs.Arg{Key: "epoch", Value: int64(e)},
			obs.Arg{Key: "bytes", Value: int64(len(payload))},
			obs.Arg{Key: "fallbacks", Value: int64(len(epochs) - 1 - i)})
		return e, payload, true, nil
	}
	return 0, nil, false, fmt.Errorf("ckpt: no readable snapshot among %d epochs: %w", len(epochs), lastErr)
}
