// Command benchmark is the repository's benchmark: six closed-loop QoS
// workloads over loopback TCP, each measured end to end with tracing off
// and, in a separate traced run, layer by layer. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

func main() { os.Exit(mainCode()) }

// mainCode dispatches on how this process was started: as a workload's
// server child, as one run of a set, or from the command line.
func mainCode() int {
	if cfg := os.Getenv(serveEnv); cfg != "" {
		return serveMain(cfg)
	}
	args := os.Args[1:]
	if raw := os.Getenv(runEnv); raw != "" {
		if err := json.Unmarshal([]byte(raw), &args); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: bad", runEnv+":", err)
			return 2
		}
		os.Unsetenv(runEnv) // not for this run's own children
	}
	return run(args, os.Stdout, os.Stderr)
}

// network states what the benchmark's traffic crosses.
const network = "loopback TCP, client and server on one host: no real link is crossed"

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Seed       int64  `json:"seed"`
	RunSeconds int    `json:"run_seconds"`
	Network    string `json:"network"`
	Placement  string `json:"placement"`
	NumCPU     int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit,omitempty"`
	// Workloads holds, per workload name, the end-to-end and the
	// per-layer run.
	Workloads map[string]*workloadResult `json:"workloads"`
}

type workloadResult struct {
	EndToEnd *runResult `json:"end_to_end,omitempty"`
	PerLayer *runResult `json:"per_layer,omitempty"`
}

// driverLine is the last line of standard output when one workload is run
// in one trace mode: the contract between the benchmark and its driver.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		names   = fs.String("workload", "", "comma-separated workloads to run, in this order (default: all)")
		seed    = fs.Int64("seed", 1, "seed of payload text and negotiate_churn proposals")
		seconds = fs.Float64("seconds", 10, "measured seconds per run")
		trace   = fs.Int("trace", -1, "0: end-to-end metrics, tracing off; 1: per-layer metrics; default both")
		out     = fs.String("out", "", "write all results to this JSON file")
		outDir  = fs.String("outdir", defaultOutDir(), "directory for trace-<workload>.jsonl")
		smoke   = fs.Bool("smoke", false, "quick pass over every workload and every check (1 s windows)")
		compare = fs.Bool("compare", false, "compare two result files given as arguments: old new")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: benchmark -compare OLD.json NEW.json")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 || *trace < -1 || *trace > 1 || *seconds <= 0 {
		fs.Usage()
		return 2
	}
	selected := workloads
	if *names != "" {
		selected = nil
		for _, name := range strings.Split(*names, ",") {
			w, err := findWorkload(name)
			if err != nil {
				fmt.Fprintln(stderr, err)
				return 2
			}
			selected = append(selected, w)
		}
	}
	cfg := runConfig{Seed: *seed, Window: time.Duration(*seconds * float64(time.Second)), Smoke: *smoke, OutDir: *outDir}
	if *smoke {
		cfg.Window = time.Second
	}

	file := resultFile{Seed: *seed, RunSeconds: int(cfg.Window.Seconds()), Network: network,
		NumCPU: runtime.NumCPU(), GoMaxProcs: 1, GoVersion: runtime.Version(),
		Commit: vcsRevision(), Workloads: make(map[string]*workloadResult)}
	code := 0
	if len(selected) == 1 && *trace >= 0 {
		code = runOne(selected[0], *trace, cfg, &file, stdout, stderr)
	} else {
		// A set: every run in a process of its own, exactly as a driver
		// would start it, so that no run inherits another's heap or peak
		// RSS.
		modes := []int{0, 1}
		if *trace >= 0 {
			modes = []int{*trace}
		}
		for _, w := range selected {
			for _, mode := range modes {
				if c := runChild(w, mode, *seed, *seconds, cfg, &file, stdout, stderr); c > code {
					code = c
				}
				if code > 1 {
					return code
				}
			}
		}
	}
	if *out != "" {
		data, err := json.MarshalIndent(file, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	return code
}

// runEnv carries, as a JSON array, the arguments of a run started by a set.
// (An environment variable rather than arguments lets the test binary
// re-execute itself the same way.)
const runEnv = "MAQS_BENCH_ARGS"

// runChild runs one workload in one mode in a process of its own and
// merges its result into file. It returns the child's exit code.
func runChild(w workload, mode int, seed int64, seconds float64, cfg runConfig, file *resultFile, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if err := os.MkdirAll(cfg.OutDir, 0o755); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	part := filepath.Join(cfg.OutDir, fmt.Sprintf("result-%s-%d.json", w.Name, mode))
	args := []string{"-workload", w.Name, "-trace", strconv.Itoa(mode), "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-outdir", cfg.OutDir, "-out", part}
	if cfg.Smoke {
		args = append(args, "-smoke")
	}
	raw, err := json.Marshal(args)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), runEnv+"="+string(raw))
	cmd.Stdout, cmd.Stderr = stdout, stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			fmt.Fprintf(stderr, "%s (trace %d): %v\n", w.Name, mode, err)
			return 2
		}
		code = 1 // a failed check: the result is still worth recording
	}
	one, err := readResults(part)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	file.Placement = one.Placement
	wr := file.Workloads[w.Name]
	if wr == nil {
		wr = &workloadResult{}
		file.Workloads[w.Name] = wr
	}
	if got := one.Workloads[w.Name]; got != nil && got.EndToEnd != nil {
		wr.EndToEnd = got.EndToEnd
	}
	if got := one.Workloads[w.Name]; got != nil && got.PerLayer != nil {
		wr.PerLayer = got.PerLayer
	}
	return code
}

// runOne measures one workload in one mode in this process, prints every
// metric and, as the last line, the driver's JSON object.
func runOne(w workload, trace int, cfg runConfig, file *resultFile, stdout, stderr io.Writer) int {
	// One CPU for both processes (see pinToOneCPU); the children inherit
	// the affinity and are started with GOMAXPROCS=1 as well.
	runtime.GOMAXPROCS(1)
	file.Placement = "not pinned"
	if cpu, err := pinToOneCPU(); err != nil {
		fmt.Fprintln(stderr, "warning: running unpinned:", err)
	} else {
		file.Placement = fmt.Sprintf("client and server pinned to CPU %d", cpu)
	}
	fmt.Fprintf(stdout, "# %s, trace %d: seed %d, %.0f s, %s, GOMAXPROCS=1 each, %s; %s\n",
		w.Name, trace, cfg.Seed, cfg.Window.Seconds(), file.Placement, file.GoVersion, network)
	var res *runResult
	var err error
	wr := &workloadResult{}
	if trace == 0 {
		res, err = measureEndToEnd(w, cfg)
		wr.EndToEnd = res
	} else {
		res, err = measurePerLayer(w, cfg)
		wr.PerLayer = res
	}
	if err != nil {
		fmt.Fprintf(stderr, "%s: %v\n", w.Name, err)
		return 2
	}
	file.Workloads[w.Name] = wr
	defs := endToEnd
	if trace == 1 {
		defs = perLayer
	}
	ok := report(stdout, res, defs)
	line := driverLine{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed,
		Metrics: make(map[string]driverValue)}
	for name, m := range res.Metrics {
		line.Metrics[name] = driverValue{m.Value, m.Unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	fmt.Fprintln(stdout, string(data))
	if !ok {
		return 1
	}
	return 0
}

// report prints every metric of res by name with its unit and returns
// whether the run was correct.
func report(w io.Writer, res *runResult, defs []metricDef) bool {
	for _, d := range defs {
		if m, ok := res.Metrics[d.Name]; ok {
			fmt.Fprintf(w, "%-16s %-34s %14.4f %s\n", res.Workload, d.Name, m.Value, m.Unit)
		}
	}
	fmt.Fprintf(w, "%-16s attempted %d, failed %d", res.Workload, res.Attempted, res.Failed)
	if res.Samples > 0 {
		fmt.Fprintf(w, ", %d latency samples in the quiet bins", res.Samples)
	}
	if len(res.FloorUs) == 2 {
		fmt.Fprintf(w, ", raw TCP floor %.1f us before and %.1f us after the window", res.FloorUs[0], res.FloorUs[1])
	}
	fmt.Fprintln(w)
	if res.Noisy {
		fmt.Fprintf(w, "%-16s noisy: true (%s); run again, quieter attempt reported (the other: %.0f ops/s)\n",
			res.Workload, res.NoisyWhy, res.OtherAttempt["ops_per_s"].Value)
	}
	sort.Strings(res.Problems)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "%-16s FAILED CHECK: %s\n", res.Workload, p)
	}
	return res.correct()
}

// defaultOutDir is benchmark/out when run from the repository root and
// out when run from the benchmark's own directory.
func defaultOutDir() string {
	if st, err := os.Stat("benchmark"); err == nil && st.IsDir() {
		return "benchmark/out"
	}
	return "out"
}

// vcsRevision is the commit the binary was built from, when the build
// recorded one.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	for _, s := range info.Settings {
		if s.Key == "vcs.revision" {
			return s.Value
		}
	}
	return ""
}
