package ghost

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/fault"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestStripReportsGolden pins every field of the strip decomposition's
// Report — counters, work accounting and the fault schedule — for
// ranks 1–4 × K 1–3 plus one crash + drop/dup plan (capped at 40
// iterations: every dropped halo costs a link timeout). The golden file
// was recorded from the dedicated strip runtime before WithRanks
// became the one-column block decomposition, so it proves the two
// agree field for field.
func TestStripReportsGolden(t *testing.T) {
	type golden struct {
		Name   string
		Report Report
	}
	var got []golden
	for ranks := 1; ranks <= 4; ranks++ {
		for k := 1; k <= 3; k++ {
			g, _ := faultGrid(t)
			rep, err := New(g, WithRanks(ranks), WithWidth(k)).Run()
			if err != nil {
				t.Fatalf("ranks=%d K=%d: %v", ranks, k, err)
			}
			got = append(got, golden{fmt.Sprintf("ranks=%d K=%d", ranks, k), rep})
		}
	}
	g, _ := faultGrid(t)
	plan := &fault.Plan{Seed: 77, Crashes: []fault.Crash{{Rank: 2, Round: 3}}, Drop: 0.1, Dup: 0.1}
	rep, err := New(g, WithRanks(4), WithWidth(2), WithMaxIters(40),
		WithFaults(plan), WithHeartbeat(testHB)).Run()
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, golden{"ranks=4 K=2 maxIters=40 crash+drop+dup", rep})

	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := filepath.Join("testdata", "strip_reports.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if string(raw) != string(want) {
		var w []golden
		if err := json.Unmarshal(want, &w); err != nil {
			t.Fatal(err)
		}
		for i := range got {
			if i >= len(w) {
				t.Fatalf("%s: no golden entry", got[i].Name)
			}
			a, _ := json.Marshal(got[i])
			b, _ := json.Marshal(w[i])
			if string(a) != string(b) {
				t.Errorf("%s:\n got %s\nwant %s", got[i].Name, a, b)
			}
		}
		t.Fatal("reports drifted from golden")
	}
}
