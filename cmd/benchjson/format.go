package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// result is one measurement of a trajectory point: the `go test -bench`
// columns of one benchmark line.
type result struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op,omitempty"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// point is one BENCH_*.json trajectory point: a context block describing
// the machine and moment, and the measurements.
type point struct {
	Context map[string]string `json:"context"`
	Results []result          `json:"results"`
}

// newPoint returns an empty point whose context records provenance: the git
// commit the tree was at ("git_commit", suffixed "+dirty" when the working
// tree had modifications) and the generation moment ("generated_at",
// ISO-8601 UTC). A commit that cannot be determined is "unknown" rather
// than omitted, so its absence is never ambiguous.
func newPoint() *point {
	return &point{Context: map[string]string{
		"generated_at": time.Now().UTC().Format(time.RFC3339),
		"git_commit":   gitCommit(),
	}}
}

// gitCommit resolves the current commit hash, preferring the repository
// state (git is present on dev machines and CI) and falling back to the
// VCS stamp the Go linker embeds in release builds.
func gitCommit() string {
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		commit := strings.TrimSpace(string(out))
		if commit != "" {
			if dirty, derr := exec.Command("git", "status", "--porcelain").Output(); derr == nil && len(strings.TrimSpace(string(dirty))) > 0 {
				commit += "+dirty"
			}
			return commit
		}
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		var rev, modified string
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
		if rev != "" {
			if modified == "true" {
				rev += "+dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// writeFile renders the point as indented JSON (with a trailing
// newline, as the committed trajectory files carry) into path.
func (d *point) writeFile(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// parseLine parses a `go test -bench` result line such as
//
//	BenchmarkE1Interception/plain/0B-8   163844   7534 ns/op   1680 B/op   42 allocs/op
//
// returning ok=false for anything that is not a benchmark result. The
// trailing -N GOMAXPROCS marker is stripped from the name so
// trajectories compare across machines with different core counts.
func parseLine(line string) (result, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
		return result{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return result{}, false
	}
	r := result{Name: trimProcSuffix(fields[0]), Iterations: iters}
	seen := false
	for i := 2; i+1 < len(fields); i += 2 {
		val, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "ns/op":
			r.NsPerOp = val
			seen = true
		case "B/op":
			r.BytesPerOp = val
		case "allocs/op":
			r.AllocsPerOp = val
		}
	}
	return r, seen
}

// parseContextLine captures a benchmark context line ("goos: linux") into
// ctx, reporting whether the line was one. pkg lines are deliberately
// not captured: one bench run spans several packages and a single
// context value would be misleading.
func parseContextLine(ctx map[string]string, line string) bool {
	k, v, ok := strings.Cut(line, ": ")
	if !ok {
		return false
	}
	switch k {
	case "goos", "goarch", "cpu":
		ctx[k] = v
		return true
	}
	return false
}

func trimProcSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	if _, err := strconv.Atoi(name[i+1:]); err != nil {
		return name
	}
	return name[:i]
}
