// Benchmarks for the experiment index of DESIGN.md §4. What each one
// measures is defined once, in internal/experiments' case table: a
// Benchmark function here runs the cases named after it, as
// sub-benchmarks named by the rest of the case name. cmd/maqs-bench prints
// its tables from the same cases, and `make bench` records these rows in
// BENCH_*.json.
package maqs_test

import (
	"os"
	"strings"
	"testing"

	"maqs/internal/experiments"
)

// family runs every case whose name starts with the calling benchmark's.
func family(b *testing.B) {
	name := strings.TrimPrefix(b.Name(), "Benchmark")
	found := false
	for _, c := range experiments.Cases() {
		switch sub, ok := strings.CutPrefix(c.Name, name); {
		case !ok:
		case sub == "":
			c.Bench(b)
			found = true
		case sub[0] == '/':
			b.Run(sub[1:], c.Bench)
			found = true
		}
	}
	if !found {
		b.Fatalf("internal/experiments has no case named %s", name)
	}
}

func BenchmarkE1Interception(b *testing.B)        { family(b) }
func BenchmarkE2Dispatch(b *testing.B)            { family(b) }
func BenchmarkE3Replication(b *testing.B)         { family(b) }
func BenchmarkE3ReplicationWAN(b *testing.B)      { family(b) }
func BenchmarkE4LoadBalance(b *testing.B)         { family(b) }
func BenchmarkE5Compression(b *testing.B)         { family(b) }
func BenchmarkE6Encryption(b *testing.B)          { family(b) }
func BenchmarkModuleWrap(b *testing.B)            { family(b) }
func BenchmarkModuleSeal(b *testing.B)            { family(b) }
func BenchmarkE7Actuality(b *testing.B)           { family(b) }
func BenchmarkE8Negotiation(b *testing.B)         { family(b) }
func BenchmarkE9Weave(b *testing.B)               { family(b) }
func BenchmarkE9StaticVsDII(b *testing.B)         { family(b) }
func BenchmarkE10ModuleControl(b *testing.B)      { family(b) }
func BenchmarkE11Admission(b *testing.B)          { family(b) }
func BenchmarkAblationVoting(b *testing.B)        { family(b) }
func BenchmarkAblationChain(b *testing.B)         { family(b) }
func BenchmarkAblationFragmentation(b *testing.B) { family(b) }

// TestEveryFamilyHasABenchmark keeps the list above complete: a case whose
// family no Benchmark function here is named after would silently drop out
// of `make bench`.
func TestEveryFamilyHasABenchmark(t *testing.T) {
	src, err := os.ReadFile("bench_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range experiments.Cases() {
		name, _, _ := strings.Cut(c.Name, "/")
		if !strings.Contains(string(src), "func Benchmark"+name+"(b *testing.B)") {
			t.Errorf("case %s: no Benchmark%s in bench_test.go", c.Name, name)
		}
	}
}
