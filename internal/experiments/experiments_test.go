package experiments

import (
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestAllListsTenExperiments(t *testing.T) {
	all := All()
	if len(all) != 10 {
		t.Fatalf("experiments = %d", len(all))
	}
	for i, e := range all {
		want := "E" + strconv.Itoa(i+1)
		if e.ID != want {
			t.Errorf("experiment %d id = %s, want %s", i, e.ID, want)
		}
		if e.Name == "" || e.Title == "" || e.Claim == "" || len(e.Cases) == 0 {
			t.Errorf("experiment %s incomplete", e.ID)
		}
	}
	seen := map[string]bool{}
	for _, c := range Cases() {
		if seen[c.Name] {
			t.Errorf("case name %s used twice", c.Name)
		}
		seen[c.Name] = true
	}
}

func TestTableRender(t *testing.T) {
	tab := &Table{
		ID:     "EX",
		Title:  "demo",
		Claim:  "something holds",
		Header: []string{"col", "value"},
		Rows:   [][]string{{"a", "1"}, {"bee", "22"}},
		Costs:  [][]string{{"EXDemo/one", "1234", "56", "7", "+0.0%"}},
		Notes:  []string{"shape as expected"},
	}
	out := tab.Render()
	for _, want := range []string{"== EX: demo ==", "claim:", "col", "bee  22", "allocs/op", "EXDemo/one  1234", "note: shape"} {
		if !strings.Contains(out, want) {
			t.Errorf("render lacks %q:\n%s", want, out)
		}
	}
}

func TestFormatters(t *testing.T) {
	if fmtDur(1500*time.Nanosecond) != "1.5µs" {
		t.Errorf("fmtDur µs = %q", fmtDur(1500*time.Nanosecond))
	}
	if fmtDur(2500*time.Microsecond) != "2.50ms" {
		t.Errorf("fmtDur ms = %q", fmtDur(2500*time.Microsecond))
	}
	if fmtDur(1200*time.Millisecond) != "1.20s" {
		t.Errorf("fmtDur s = %q", fmtDur(1200*time.Millisecond))
	}
	if fmtPct(0.255) != "25.5%" {
		t.Errorf("fmtPct = %q", fmtPct(0.255))
	}
}

// TestEveryCaseRunsOnce is the smoke test of the case table: every case of
// every experiment and ablation sets up and performs one operation.
func TestEveryCaseRunsOnce(t *testing.T) {
	for _, c := range Cases() {
		t.Run(c.Name, func(t *testing.T) {
			op, _ := c.Setup(t)
			op()
		})
	}
}

// TestEveryShapeRuns runs each run-once experiment and checks the table it
// returns has the documented columns and at least one full row. What the
// rows must say is asserted where the mechanism lives (TestKAvailability,
// TestLeastLoadedAvoidsBusyWorker, TestStalenessBoundedByContract).
func TestEveryShapeRuns(t *testing.T) {
	columns := map[string]int{"E3": 6, "E4": 5, "E5": 5, "E7": 6, "E8": 3, "E9": 2}
	for _, e := range All() {
		want, documented := columns[e.ID]
		if documented != (e.Shape != nil) {
			t.Errorf("%s: shape function present = %v, documented = %v", e.ID, e.Shape != nil, documented)
		}
		if e.Shape == nil {
			continue
		}
		t.Run(e.ID, func(t *testing.T) {
			if e.ID == "E5" && testing.Short() {
				t.Skip("the bandwidth sweep takes ~10 s of simulated link time")
			}
			header, rows := e.Shape(t)
			if len(header) != want || len(rows) == 0 {
				t.Fatalf("%d columns and %d rows, want %d columns and at least one row", len(header), len(rows), want)
			}
			for _, row := range rows {
				if len(row) != want {
					t.Errorf("row %q has %d cells, want %d", row, len(row), want)
				}
			}
		})
	}
}

// TestRunMeasuresEveryCase drives the table path of cmd/maqs-bench on the
// cheapest experiment with both a shape and cases, and checks a failing
// set-up comes back as an error that says why.
func TestRunMeasuresEveryCase(t *testing.T) {
	if testing.Short() {
		t.Skip("measures each case for 200 ms")
	}
	tab, err := e9.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) == 0 || len(tab.Costs) != len(e9.Cases) {
		t.Fatalf("%d shape rows, %d cost rows for %d cases", len(tab.Rows), len(tab.Costs), len(e9.Cases))
	}
	for i, row := range tab.Costs {
		if row[0] != e9.Cases[i].Name || len(row) != len(costHeader) {
			t.Errorf("cost row %d = %q", i, row)
		}
	}

	broken := Experiment{ID: "EX", Cases: []Case{{"EXBroken", func(tb testing.TB) (func(), int64) {
		tb.Fatalf("no world for %s", "EX")
		return nil, 0
	}}}}
	if _, err := broken.Run(); err == nil || !strings.Contains(err.Error(), "EXBroken: no world for EX") {
		t.Fatalf("failing set-up reported as %v", err)
	}
}

// TestDocsNameWhatExists is the doc-drift lint: the experiment ids, titles
// and Benchmark targets DESIGN.md §4 and EXPERIMENTS.md name are the ones
// All() and Cases() define, and every experiment is named there.
func TestDocsNameWhatExists(t *testing.T) {
	read := func(path string) string {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(data)
	}
	design, results := read("../../DESIGN.md"), read("../../EXPERIMENTS.md")
	start, end := strings.Index(design, "\n## 4."), strings.Index(design, "\n## 5.")
	if start < 0 || end < start {
		t.Fatal("DESIGN.md has no §4 between \"## 4.\" and \"## 5.\"")
	}
	design = design[start:end]

	// Every Benchmark target the documents name is a case or a prefix of one.
	target := regexp.MustCompile(`Benchmark([A-Za-z0-9/=@_-]+)`)
	for _, m := range target.FindAllStringSubmatch(design+results, -1) {
		if !slices.ContainsFunc(Cases(), func(c Case) bool { return strings.HasPrefix(c.Name, m[1]) }) {
			t.Errorf("the documents name %s, which no case of internal/experiments is", m[0])
		}
	}

	// DESIGN.md §4 has one table row per experiment, naming each of its
	// benchmark families; EXPERIMENTS.md one summary row and one section,
	// headed by the experiment's title.
	byID := func(text, pattern string) map[string]string {
		found := map[string]string{}
		for _, m := range regexp.MustCompile(pattern).FindAllStringSubmatch(text, -1) {
			found[m[1]] = m[2]
		}
		return found
	}
	rows, summary := byID(design, `(?m)^\| (E\d+) \|(.*)$`), byID(results, `(?m)^\| (E\d+) \|(.*)$`)
	sections := byID(results, `(?m)^### (E\d+) — (.*)$`)
	all := All()
	if len(rows) != len(all) || len(summary) != len(all) || len(sections) != len(all) {
		t.Errorf("DESIGN.md §4 lists %d experiments, EXPERIMENTS.md %d in its summary and %d sections; there are %d",
			len(rows), len(summary), len(sections), len(all))
	}
	for _, e := range all {
		if summary[e.ID] == "" {
			t.Errorf("EXPERIMENTS.md's summary has no row for %s", e.ID)
		}
		if sections[e.ID] != e.Title {
			t.Errorf("EXPERIMENTS.md heads %s with %q, its title is %q", e.ID, sections[e.ID], e.Title)
		}
		families := map[string]bool{}
		for _, c := range e.Cases {
			family, _, _ := strings.Cut(c.Name, "/")
			families[family] = true
		}
		for family := range families {
			if !strings.Contains(rows[e.ID], "`Benchmark"+family+"`") {
				t.Errorf("DESIGN.md §4's row for %s does not name `Benchmark%s`", e.ID, family)
			}
		}
	}
}
