package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "op_p50_us", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", HigherBetter: true, Bound: 0.10}
	unbounded := metricDef{Name: "orb.invoke_ns"}
	m := func(v, spread float64) measurement { return measurement{Value: v, Spread: spread} }
	cases := []struct {
		name     string
		def      metricDef
		old, new measurement
		want     verdict
	}{
		{"same value", lower, m(40, 0.05), m(40, 0.05), verdictUnchanged},
		{"inside the spread", lower, m(40, 0.05), m(41.5, 0.02), verdictUnresolved},
		{"inside the new run's spread", lower, m(40, 0), m(41.5, 0.05), verdictUnresolved},
		{"noise wider than the bound", lower, m(40, 0.3), m(50, 0), verdictUnresolved},
		{"faster", lower, m(40, 0.02), m(36, 0.02), verdictImproved},
		{"slower within the bound", lower, m(40, 0.02), m(43, 0.02), verdictWorse},
		{"slower past the bound", lower, m(40, 0.02), m(45, 0.02), verdictRegressed},
		{"more throughput", higher, m(1000, 0.01), m(1100, 0.01), verdictImproved},
		{"less throughput past the bound", higher, m(1000, 0.01), m(880, 0.01), verdictRegressed},
		{"a layer metric cannot regress", unbounded, m(5000, 0), m(9000, 0), verdictWorse},
	}
	for _, c := range cases {
		if _, got := judge(c.def, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
	if worsening, _ := judge(higher, m(1000, 0), m(900, 0)); !near(worsening, 0.1) {
		t.Errorf("worsening of a 10%% throughput loss = %v, want 0.1", worsening)
	}
}

func TestCompareFilesExitCode(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 float64) string {
		f := resultFile{Workloads: map[string]*workloadResult{"plain_small": {
			EndToEnd: &runResult{Workload: "plain_small", Metrics: metricSet{
				"op_p50_us": {Value: p50, Unit: "us", Spread: 0.01},
				"ops_per_s": {Value: 40000, Unit: "1/s", Spread: 0.01}}},
			PerLayer: &runResult{Workload: "plain_small", Metrics: metricSet{"orb.invoke_ns": {Value: 5000 * p50 / 40, Unit: "ns"}}},
		}}}
		data, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base, same, slow := write("base.json", 40), write("same.json", 40.2), write("slow.json", 50)
	var out, errs bytes.Buffer
	if code := compareFiles(base, same, &out, &errs); code != 0 {
		t.Errorf("comparing equal runs exits %d, want 0\n%s%s", code, out.String(), errs.String())
	}
	if !strings.Contains(out.String(), string(verdictUnresolved)) {
		t.Errorf("a 0.5%% move inside a 1%% spread is not called unresolved:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(base, slow, &out, &errs); code != 1 {
		t.Errorf("comparing against a 25%% slower run exits %d, want 1\n%s", code, out.String())
	}
	for _, want := range []string{"op_p50_us", "orb.invoke_ns", string(verdictRegressed), string(verdictWorse), "20%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comparison output lacks %q:\n%s", want, out.String())
		}
	}
	if code := compareFiles(slow, base, &out, &errs); code != 0 {
		t.Errorf("an improvement exits %d, want 0", code)
	}
	if code := compareFiles(base, filepath.Join(dir, "missing.json"), &out, &errs); code != 2 {
		t.Errorf("a missing file exits %d, want 2", code)
	}
}
