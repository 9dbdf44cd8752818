package wfsched

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
)

var (
	updateGolden = flag.Bool("update", false, "rewrite testdata/outcomes_golden.json")
	fullSweep    = flag.Bool("full-sweep", false, "also digest all 8,000 Tab 2 placements (~12 s on 2 vCPUs)")
)

const goldenPath = "testdata/outcomes_golden.json"

// digestOutcome feeds every Outcome field into h: floats as their
// IEEE-754 bits, ints as int64, little-endian, in declaration order.
// Reflection keeps a field added later from slipping past the digest.
func digestOutcome(h hash.Hash, o Outcome) {
	var buf [8]byte
	v := reflect.ValueOf(o)
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f.Float()))
		case reflect.Int:
			binary.LittleEndian.PutUint64(buf[:], uint64(f.Int()))
		default:
			panic("digestOutcome: unhandled Outcome field kind " + f.Kind().String())
		}
		h.Write(buf[:])
	}
}

func digestString(h hash.Hash, s string) {
	h.Write([]byte(s))
	h.Write([]byte{0})
}

func hexSum(h hash.Hash) string { return hex.EncodeToString(h.Sum(nil)) }

// e20Optimum is the minimum-CO2 placement of the full 8,000-point Tab 2
// sweep (E20), found once by ExhaustiveFractions and pinned here so the
// golden can include it without re-running the sweep.
var e20Optimum = []float64{0.5, 0.75, 1, 1, 1, 1, 1, 1, 1}

// goldenDigests computes one digest per scenario family. Every entry
// is a pure function of the simulator, so a refactor that changes any
// bit of any Outcome — or the fault schedule, or the order of the
// live fault-note stream — changes its digest.
func goldenDigests(t *testing.T) map[string]string {
	t.Helper()
	got := map[string]string{}

	// Tab 1: every (nodes, p-state) pair of the 64-node cluster.
	base, ps := Tab1Base()
	h := sha256.New()
	for n := 1; n <= Tab1MaxNodes; n++ {
		for p := range ps {
			digestOutcome(h, SimulateCluster(base, ps, ClusterConfig{n, p}))
		}
	}
	got["tab1"] = hexSum(h)

	// Tab 2: a fixed stride through the exhaustive placement space,
	// plus the E20 optimum.
	sc := Tab2Scenario()
	choices := Tab2Choices(sc.Workflow)
	total, decode := fractionSpace(choices)
	h = sha256.New()
	for i := 0; i < total; i += 500 {
		digestOutcome(h, Simulate(sc, LevelFractions(sc.Workflow, decode(i))))
	}
	digestOutcome(h, Simulate(sc, LevelFractions(sc.Workflow, e20Optimum)))
	got["tab2"] = hexSum(h)

	// E23: every split configuration HeterogeneousAblation evaluates,
	// in its loop order, then the ablation's result.
	h = sha256.New()
	for pA := range ps {
		for pB := 0; pB < pA; pB++ {
			for nA := 1; nA <= Tab1MaxNodes; nA += 4 {
				for nB := 4; nA+nB <= Tab1MaxNodes; nB += 4 {
					cfg := SplitConfig{A: ClusterConfig{nA, pA}, B: ClusterConfig{nB, pB}}
					digestOutcome(h, SimulateSplitCluster(base, ps, cfg))
				}
			}
		}
	}
	res, err := HeterogeneousAblation(base, Tab1MaxNodes, Tab1BoundSec)
	if err != nil {
		t.Fatal(err)
	}
	digestString(h, res.Homogeneous.String())
	digestOutcome(h, res.HomogeneousOutcome)
	digestString(h, res.Split.String())
	digestOutcome(h, res.SplitOutcome)
	got["split"] = hexSum(h)

	// Faults: the TestWarpMatchesWithFaults plans. Each digest covers
	// the outcome, the sorted fault schedule, and the fault notes in
	// the order the live event stream saw them.
	for name, tc := range map[string]struct {
		plan  string
		setup func() (Scenario, Placement)
	}{
		"faults/tab1-hostfail": {"seed=7,hostfail=0.15,repair=4", func() (Scenario, Placement) {
			sc := base
			sc.LocalNodes = 16
			sc.PState = ps[len(ps)-1]
			return sc, AllLocal
		}},
		"faults/tab2-hostfail": {"seed=11,hostfail=0.1,repair=6,retrybase=2", func() (Scenario, Placement) {
			sc := Tab2Scenario()
			return sc, LevelFractions(sc.Workflow, []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5})
		}},
	} {
		plan, err := fault.Parse(tc.plan)
		if err != nil {
			t.Fatal(err)
		}
		sc, place := tc.setup()
		sc.Faults = plan
		out, schedule, notes := simulateWithNotes(t, sc, place)
		h = sha256.New()
		digestOutcome(h, out)
		for _, s := range schedule {
			digestString(h, s)
		}
		digestString(h, "--")
		for _, s := range notes {
			digestString(h, s)
		}
		got[name] = hexSum(h)
	}
	return got
}

// simulateWithNotes runs sc with a logger attached and returns the
// outcome, the injector's sorted schedule, and the fault notes in
// emission order.
func simulateWithNotes(t *testing.T, sc Scenario, place Placement) (Outcome, []string, []string) {
	t.Helper()
	var lines strings.Builder
	sc.Obs = obs.Sink{Log: obs.NewLogger(obs.WithLogWriter(&lines))}
	out := Simulate(sc, place)
	var notes []string
	for _, ln := range strings.Split(strings.TrimSpace(lines.String()), "\n") {
		var e obs.Event
		if err := json.Unmarshal([]byte(ln), &e); err != nil {
			t.Fatalf("fault note %q: %v", ln, err)
		}
		if e.Source == "fault" {
			notes = append(notes, e.Msg)
		}
	}
	if len(notes) == 0 {
		t.Fatal("fault plan produced no notes; the golden has no teeth")
	}
	// Schedule is the sorted note log; rebuild it the same way
	// Injector.Schedule does so the golden pins both views.
	schedule := append([]string(nil), notes...)
	sort.Strings(schedule)
	return out, schedule, notes
}

// fullSweepDigest digests every Tab 2 placement, in index order.
func fullSweepDigest() string {
	sc := Tab2Scenario()
	h := sha256.New()
	for _, r := range EvaluateFractions(sc, Tab2Choices(sc.Workflow)) {
		digestOutcome(h, r.Outcome)
	}
	return hexSum(h)
}

// TestOutcomesGolden pins every Outcome bit of the simulator over the
// Tab 1 grid, a Tab 2 placement sample, the E23 split space, and the
// fault oracle plans against digests recorded from the reference
// implementation. Run with -update to rewrite them, and with
// -full-sweep to check the full 8,000-placement Tab 2 digest too.
func TestOutcomesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("digests ~3,000 simulations")
	}
	got := goldenDigests(t)
	want := map[string]string{}
	if raw, err := os.ReadFile(goldenPath); err == nil {
		if err := json.Unmarshal(raw, &want); err != nil {
			t.Fatal(err)
		}
	} else if !*updateGolden {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if *fullSweep {
		got["tab2-full"] = fullSweepDigest()
	} else if d, ok := want["tab2-full"]; ok {
		got["tab2-full"] = d // not recomputed; keep the recorded digest
	}
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: digest %s, golden %s", k, got[k], w)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: no golden digest recorded", k)
		}
	}
}

// TestE20OptimumPinned guards the e20Optimum constant: it must be a
// point of the Tab 2 choice space and beat both trivial placements.
func TestE20OptimumPinned(t *testing.T) {
	sc := Tab2Scenario()
	choices := Tab2Choices(sc.Workflow)
	if len(e20Optimum) != len(choices) {
		t.Fatalf("optimum has %d levels, want %d", len(e20Optimum), len(choices))
	}
	for l, f := range e20Optimum {
		found := false
		for _, c := range choices[l] {
			found = found || c == f
		}
		if !found {
			t.Fatalf("level %d fraction %v is not a choice", l, f)
		}
	}
	opt := Simulate(sc, LevelFractions(sc.Workflow, e20Optimum))
	for _, place := range []Placement{AllLocal, AllCloud} {
		if o := Simulate(sc, place); o.CO2 <= opt.CO2 {
			t.Fatalf("pinned optimum (%.2f g) does not beat a trivial placement (%.2f g)", opt.CO2, o.CO2)
		}
	}
}
