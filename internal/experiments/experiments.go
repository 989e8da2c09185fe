// Package experiments is the evaluation of the paper, defined once. The
// paper itself reports no quantitative tables (its figures are architecture
// diagrams), so each experiment operationalises one of its claims — see
// DESIGN.md §4 for the index and EXPERIMENTS.md for recorded results.
//
// What an experiment is — id, title, the paper's claim, and its cases, each
// a named set-up that returns the operation to measure — is stated here and
// nowhere else; who reads it is kept apart. The root package's benchmarks
// run every case under `go test -bench` (the names in BENCH_*.json), its
// allocation gates take their worlds from the same builder (NewWorld), and
// cmd/maqs-bench prints each experiment's table by running the same cases
// through testing.Benchmark. Results that are not a per-call cost —
// availability under crashes, share under skew, a bandwidth sweep — are an
// experiment's Shape: a function run once, on the same builder.
package experiments

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// Case is one measured configuration.
type Case struct {
	// Name is the benchmark name without its "Benchmark" prefix:
	// "E1Interception/bound/64B" is measured by BenchmarkE1Interception as
	// sub-benchmark bound/64B.
	Name string
	// Setup builds what the case needs on tb (torn down by tb.Cleanup) and
	// returns the operation to run per iteration, with the payload bytes
	// one operation moves where throughput is worth reporting (else 0).
	Setup func(tb testing.TB) (op func(), bytes int64)
}

// Bench is the one benchmark loop: set-up, a warm-up call (connections,
// pools, handshakes), then b.N timed operations.
func (c Case) Bench(b *testing.B) { c.bench(b, b) }

func (c Case) bench(b *testing.B, tb testing.TB) {
	op, bytes := c.Setup(tb)
	op()
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
}

// Experiment is one entry of the experiment index.
type Experiment struct {
	// ID is E1..E10; Name the short name `maqs-bench -list` prints.
	ID, Name string
	// Title heads the experiment's table.
	Title string
	// Claim cites the paper statement the experiment checks.
	Claim string
	// Cases are the per-call costs, first the one the others are compared to.
	Cases []Case
	// Shape, when set, produces the result that is not a per-call cost.
	Shape func(tb testing.TB) (header []string, rows [][]string)
	// Notes carry interpretation (the shape to expect).
	Notes []string
}

// All lists the experiments in order.
func All() []Experiment {
	return []Experiment{e1, e2, e3, e4, e5, e6, e7, e8, e9, e10}
}

// Cases lists every case: the experiments' and the ablations'.
func Cases() []Case {
	var cases []Case
	for _, e := range All() {
		cases = append(cases, e.Cases...)
	}
	return append(cases, Ablations()...)
}

// benchTime is `make bench`'s -benchtime, so that a table row and the same
// case's BENCH_*.json row are one measurement method at one length.
const benchTime = "200ms"

// Run measures the experiment outside `go test`: the shape once, every case
// through testing.Benchmark.
func (e Experiment) Run() (*Table, error) {
	t := &Table{ID: e.ID, Title: e.Title, Claim: e.Claim, Notes: e.Notes}
	if e.Shape != nil {
		_, err := outside("1x", func(_ *testing.B, tb testing.TB) { t.Header, t.Rows = e.Shape(tb) })
		if err != nil {
			return nil, err
		}
	}
	var first float64
	for i, c := range e.Cases {
		r, err := outside(benchTime, c.bench)
		if err != nil {
			return nil, fmt.Errorf("case %s: %w", c.Name, err)
		}
		ns := float64(r.T.Nanoseconds()) / float64(r.N)
		if i == 0 {
			first = ns
		}
		t.Costs = append(t.Costs, []string{c.Name, fmt.Sprintf("%.0f", ns), fmt.Sprint(r.AllocedBytesPerOp()),
			fmt.Sprint(r.AllocsPerOp()), fmt.Sprintf("%+.1f%%", 100*(ns-first)/first)})
	}
	return t, nil
}

// outside runs f as a benchmark of the given -benchtime where there is no
// `go test`: the testing.TB that set-ups fail and clean up through is the
// one testing.Benchmark brings. Benchmark discards what a failing f logged;
// the recorder keeps it for the error.
func outside(benchtime string, f func(b *testing.B, tb testing.TB)) (testing.BenchmarkResult, error) {
	testing.Init()
	bt := flag.Lookup("test.benchtime")
	defer flag.Set(bt.Name, bt.Value.String())
	if err := flag.Set(bt.Name, benchtime); err != nil {
		return testing.BenchmarkResult{}, err
	}
	rec := &recorder{}
	r := testing.Benchmark(func(b *testing.B) {
		rec.TB = b
		f(b, rec)
	})
	if rec.Failed() {
		return r, errors.New(rec.failure)
	}
	return r, nil
}

// recorder is a testing.TB that remembers why it failed.
type recorder struct {
	testing.TB
	failure string
}

func (r *recorder) Fatal(args ...any) {
	r.failure = fmt.Sprint(args...)
	r.TB.Fatal(args...)
}

func (r *recorder) Fatalf(format string, args ...any) {
	r.failure = fmt.Sprintf(format, args...)
	r.TB.Fatalf(format, args...)
}

// Table is one experiment's result as maqs-bench prints it.
type Table struct {
	// ID is the experiment identifier (E1..E10).
	ID string
	// Title describes the experiment.
	Title string
	// Claim cites the paper statement the experiment checks.
	Claim string
	// Header names the columns of Rows, the experiment's shape.
	Header []string
	Rows   [][]string
	// Costs are the measured cases, one row of costHeader's columns each.
	Costs [][]string
	// Notes carry interpretation (the "shape" observed).
	Notes []string
}

var costHeader = []string{"case", "ns/op", "B/op", "allocs/op", "vs first row"}

// Render formats the table for terminal output.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	if t.Claim != "" {
		fmt.Fprintf(&b, "claim: %s\n", t.Claim)
	}
	grid(&b, t.Header, t.Rows)
	if len(t.Header) > 0 && len(t.Costs) > 0 {
		b.WriteByte('\n')
	}
	if len(t.Costs) > 0 {
		grid(&b, costHeader, t.Costs)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// grid writes header, a rule and rows in aligned columns; nothing when
// there is no header.
func grid(b *strings.Builder, header []string, rows [][]string) {
	if len(header) == 0 {
		return
	}
	widths := make([]int, len(header))
	for i, h := range header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], utf8.RuneCountInString(cell))
			}
		}
	}
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(header)
	rule := make([]string, len(widths))
	for i, w := range widths {
		rule[i] = strings.Repeat("-", w)
	}
	line(rule)
	for _, row := range rows {
		line(row)
	}
}

// fmtDur renders a duration at µs resolution.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	}
}

// fmtPct renders a ratio as a percentage.
func fmtPct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
