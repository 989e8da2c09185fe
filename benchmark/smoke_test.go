package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when a
// workload re-executes it as its server child.
func TestMain(m *testing.M) {
	if os.Getenv(serveEnv) != "" || os.Getenv(runEnv) != "" {
		os.Exit(mainCode())
	}
	os.Exit(m.Run())
}

// TestSmoke runs every workload in both trace modes with one-second
// windows and every correctness check armed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server child per workload")
	}
	dir := t.TempDir()
	results := filepath.Join(dir, "results.json")
	var out, errs bytes.Buffer
	if code := run([]string{"-smoke", "-outdir", dir, "-out", results}, &out, &errs); code != 0 {
		t.Fatalf("smoke run exited %d\n%s%s", code, out.String(), errs.String())
	}
	data, err := os.ReadFile(results)
	if err != nil {
		t.Fatal(err)
	}
	var file resultFile
	if err := json.Unmarshal(data, &file); err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := file.Workloads[w.Name]
		if wr == nil || wr.EndToEnd == nil || wr.PerLayer == nil {
			t.Fatalf("%s: missing from the result file", w.Name)
		}
		for _, run := range []struct {
			res  *runResult
			defs []metricDef
		}{{wr.EndToEnd, endToEnd}, {wr.PerLayer, perLayer}} {
			if !run.res.correct() {
				t.Errorf("%s: attempted %d failed %d problems %v", w.Name, run.res.Attempted, run.res.Failed, run.res.Problems)
			}
			for _, d := range run.defs {
				m, ok := run.res.Metrics[d.Name]
				if !ok || m.Unit != d.Unit {
					t.Errorf("%s: metric %s reported as %+v (present %v), want unit %s", w.Name, d.Name, m, ok, d.Unit)
				}
				if !strings.Contains(out.String(), d.Name) {
					t.Errorf("metric %s is not printed by name", d.Name)
				}
			}
		}
		for _, d := range endToEnd {
			if wr.EndToEnd.Metrics[d.Name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want a positive value", w.Name, d.Name, wr.EndToEnd.Metrics[d.Name].Value)
			}
		}
		if st, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil || st.Size() == 0 {
			t.Errorf("%s: trace file missing or empty (%v)", w.Name, err)
		}
	}
	// The workloads discriminate as designed.
	e2e := func(w, m string) float64 { return file.Workloads[w].EndToEnd.Metrics[m].Value }
	layer := func(w, m string) float64 { return file.Workloads[w].PerLayer.Metrics[m].Value }
	if d := e2e("bound_small", "allocs_per_op") - e2e("plain_small", "allocs_per_op"); d < 15 {
		t.Errorf("binding Null adds %.1f allocations per op, want at least 15", d)
	}
	if wire := e2e("compressed_4k", "wire_bytes_per_op"); wire >= 2*4096 {
		t.Errorf("compressed_4k moves %.0f wire bytes per op, want under the 8192 of two plain payloads", wire)
	}
	if layer("plain_small", "characteristics.send_ns") != 0 || layer("compressed_4k", "characteristics.send_ns") <= 0 {
		t.Error("characteristics.send_ns should be absent on plain_small and present on compressed_4k")
	}
	if layer("encrypted_1k", "transport.filter_us") <= 0 || layer("bound_small", "qos.prolog_epilog_us") <= 0 {
		t.Error("the traced run shows no module filter on encrypted_1k or no prolog/epilog on bound_small")
	}
}

// TestDriverLine checks the one-workload, one-mode output contract.
func TestDriverLine(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a server child")
	}
	var out, errs bytes.Buffer
	args := []string{"--workload", "bound_small", "--seed", "3", "--seconds", "0.5", "--trace", "0", "-smoke", "-outdir", t.TempDir()}
	if code := run(args, &out, &errs); code != 0 {
		t.Fatalf("exited %d\n%s%s", code, out.String(), errs.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var line map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, lines[len(lines)-1])
	}
	var keys []string
	for k := range line {
		keys = append(keys, k)
	}
	if len(keys) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
		t.Fatalf("last line has keys %v, want exactly correct, attempted, failed, metrics", keys)
	}
	var metrics map[string]driverValue
	if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the last line, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}
	if string(line["correct"]) != "true" || string(line["failed"]) != "0" {
		t.Errorf("correct %s failed %s, want true and 0", line["correct"], line["failed"])
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json at the repository
// root in step with the workloads and metrics declared here.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var decl struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for i, w := range decl.Workloads {
		names = append(names, w.Name)
		if i < len(workloads) && w.Why != workloads[i].Why {
			t.Errorf("workload %s: BENCHMARK.json says %q, code says %q", w.Name, w.Why, workloads[i].Why)
		}
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, code has %v", names, workloadNames())
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, code declares %d", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			better := "lower"
			if d.HigherBetter {
				better = "higher"
			}
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, code declares %+v", kind, i, g, d)
			}
			if bounded != (g.Bound != nil) || (bounded && *g.Bound != d.Bound) {
				t.Errorf("%s metric %s: bound in BENCHMARK.json does not match %v", kind, d.Name, d.Bound)
			}
		}
	}
	check("end_to_end", decl.EndToEnd, endToEnd, true)
	check("per_layer", decl.PerLayer, perLayer, false)
}
