package main

import "testing"

func TestCheckFlagsRejectsSplitWithFaults(t *testing.T) {
	if err := checkFlags(true, "seed=1,hostfail=0.1"); err == nil {
		t.Fatal("-split with -faults accepted")
	}
	for _, tc := range []struct {
		split  bool
		faults string
	}{{true, ""}, {false, "seed=1,hostfail=0.1"}, {false, ""}} {
		if err := checkFlags(tc.split, tc.faults); err != nil {
			t.Fatalf("split=%v faults=%q rejected: %v", tc.split, tc.faults, err)
		}
	}
}
