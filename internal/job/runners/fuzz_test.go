package runners

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"repro/internal/job"
)

// validateSpecSeeds is the checked-in FuzzValidateSpec corpus, one
// file per entry under testdata/fuzz/FuzzValidateSpec: svc-mixed's job
// classes (bench/svc.go), then wrong types, unknown fields,
// out-of-range numbers, bad fault plans and malformed JSON. `go test
// ./internal/job/runners -run TestValidateSpecCorpus -update` rewrites
// the files from this table.
var validateSpecSeeds = []struct{ name, params string }{
	{"svc_sandpile_center", `{"size":64,"config":"center","grains":4000}`},
	{"svc_sandpile_sparse", `{"size":256,"config":"sparse","variant":"lazy-sync","maxIters":200,"seed":1}`},
	{"svc_sandpile_ghost", `{"size":96,"config":"center","grains":20000,"ranks":2,"ghostWidth":2}`},
	{"svc_mapreduce", `{"docs":500,"seed":1}`},
	{"svc_wfsim_tab1", `{"mode":"tab1","nodes":49}`},
	{"svc_wfsim_tab2", `{"mode":"tab2"}`},
	{"type_string_for_int", `{"size":"64","nodes":"48","docs":"5"}`},
	{"type_int_for_string", `{"mode":1,"config":2,"job":3,"faults":4}`},
	{"type_float_for_int", `{"size":64.5,"nodes":1.5,"desWorkers":0.5}`},
	{"type_negative_uint", `{"grains":-1}`},
	{"type_bool_for_slice", `{"fractions":true,"experiments":false}`},
	{"type_null_fields", `{"nodes":null,"pstate":null,"seed":null,"fractions":null}`},
	{"type_array", `[{"mode":"tab1"}]`},
	{"unknown_field", `{"mode":"tab1","nodez":8}`},
	{"unknown_nested", `{"extra":{"a":[1,{"b":2}]}}`},
	{"range_nodes_zero", `{"mode":"tab1","nodes":0}`},
	{"range_nodes_high", `{"mode":"tab1","nodes":65}`},
	{"range_pstate_negative", `{"mode":"tab1","pstate":-1}`},
	{"range_pstate_high", `{"pstate":7}`},
	{"range_fractions", `{"mode":"tab2","fractions":[-0.1,1.1]}`},
	{"range_desworkers_negative", `{"mode":"greedy","desWorkers":-1}`},
	{"range_size_huge", `{"size":1000000}`},
	{"range_size_negative", `{"size":-4}`},
	{"range_docs_zero", `{"docs":0}`},
	{"range_int_overflow", `{"size":9223372036854775808,"docs":1e400,"nodes":-9223372036854775809}`},
	{"faults_unrunnable", `{"faults":"seed=1,hostfail=1"}`},
	{"faults_garbage", `{"ranks":2,"faults":"crash=x@y"}`},
	{"faults_nan", `{"mode":"tab2","faults":"hostfail=0.5,repair=NaN"}`},
	{"peachy_unknown_experiment", `{"experiments":["E999",""]}`},
	{"json_empty", ``},
	{"json_null", `null`},
	{"json_truncated", `{"mode":"tab`},
	{"json_trailing", `{"mode":"tab2"} {"x":1}`},
	{"json_bad_escape", `{"mode":"\u12"}`},
}

const validateSpecCorpus = "testdata/fuzz/FuzzValidateSpec"

// corpusFile encodes one fuzz input the way `go test -fuzz` stores it.
func corpusFile(params string) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", params))
}

// TestValidateSpecCorpus: the checked-in corpus is exactly what
// validateSpecSeeds generates (-update rewrites it).
func TestValidateSpecCorpus(t *testing.T) {
	if *updateGolden {
		if err := os.MkdirAll(validateSpecCorpus, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range validateSpecSeeds {
		path := filepath.Join(validateSpecCorpus, s.name)
		want := corpusFile(s.params)
		if *updateGolden {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%v (run with -update to generate the corpus)", err)
		}
		if string(got) != string(want) {
			t.Errorf("%s holds %q, want %q (run with -update)", path, got, want)
		}
	}
}

// FuzzValidateSpec feeds arbitrary bytes as the params of every
// default job kind. Validate must accept them or refuse them with
// job.ErrBadSpec (the HTTP 400 class), and must never panic.
func FuzzValidateSpec(f *testing.F) {
	table := Defaults()
	kinds := make([]string, 0, len(table))
	for kind := range table {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	f.Fuzz(func(t *testing.T, params []byte) {
		for _, kind := range kinds {
			err := table[kind].Validate(job.Spec{Kind: kind, Tenant: "fuzz", Params: params})
			if err != nil && !errors.Is(err, job.ErrBadSpec) {
				t.Fatalf("%s: Validate(%q) = %v, want nil or ErrBadSpec", kind, params, err)
			}
		}
	})
}
