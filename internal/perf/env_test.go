package perf

import (
	"encoding/json"
	"sort"
	"strings"
	"testing"
)

func TestFingerprintPopulated(t *testing.T) {
	e := Fingerprint()
	if e.GOMAXPROCS <= 0 || e.NumCPU <= 0 || e.GoVersion == "" || e.GOOS == "" {
		t.Errorf("incomplete fingerprint: %+v", e)
	}
}

// TestFingerprintJSONKeys pins the key set cmd/benchmark writes into every
// result file and reads back in -compare's environment check: a renamed tag
// would make files from either side of the rename look like another machine.
func TestFingerprintJSONKeys(t *testing.T) {
	t.Setenv("OPENDESC_COMMIT", "abc1234")
	e := Fingerprint()
	b, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var got []string
	for k := range doc {
		got = append(got, k)
	}
	sort.Strings(got)
	want := []string{"commit", "goarch", "goos", "go_version", "gomaxprocs", "num_cpu"}
	if e.CPUModel != "" { // omitempty: absent where /proc/cpuinfo is
		want = append(want, "cpu_model")
	}
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("fingerprint keys = %v, want %v", got, want)
	}

	full, err := json.Marshal(Env{GOOS: "linux", GOARCH: "amd64", GoVersion: "go1.24.0",
		GOMAXPROCS: 2, NumCPU: 4, CPUModel: "cpu", Commit: "abc1234"})
	if err != nil {
		t.Fatal(err)
	}
	const wire = `{"goos":"linux","goarch":"amd64","go_version":"go1.24.0","gomaxprocs":2,"num_cpu":4,"cpu_model":"cpu","commit":"abc1234"}`
	if string(full) != wire {
		t.Errorf("Env encodes as\n%s\nwant\n%s", full, wire)
	}
}
