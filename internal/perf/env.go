// Package perf holds the environment fingerprint a benchmark result file
// carries, so two results are never compared blind across machines or
// toolchains. cmd/benchmark stamps every result with it and refuses to
// compare two files whose fingerprints differ.
package perf

import (
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Env is the environment fingerprint of a benchmark run: enough to judge
// whether two results are comparable at all. The JSON tags are a file
// format: result files written by older commits must keep decoding.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model,omitempty"`
	Commit     string `json:"commit,omitempty"`
}

// Fingerprint captures the current process environment: the context a
// future reader needs to judge whether two results are comparable
// (same machine class, same toolchain) or not.
func Fingerprint() Env {
	return Env{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Commit:     gitCommit(),
	}
}

// cpuModel best-efforts the CPU model name; empty when unavailable
// (non-Linux, restricted /proc).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok {
			switch strings.TrimSpace(k) {
			case "model name", "Processor", "cpu model":
				return strings.TrimSpace(v)
			}
		}
	}
	return ""
}

// gitCommit best-efforts the current commit hash (short), preferring an
// explicit OPENDESC_COMMIT (set by CI) over invoking git. Empty when
// neither is available — the fingerprint stays valid, just less precise.
func gitCommit() string {
	if c := os.Getenv("OPENDESC_COMMIT"); c != "" {
		return c
	}
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(out))
}
