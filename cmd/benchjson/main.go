// Command benchjson turns `go test -bench -benchmem` output into a JSON
// trajectory file (BENCH_*.json, see docs/PERFORMANCE.md).
//
// It reads benchmark output on stdin, echoes every line through to stdout
// unchanged (so the human-readable table is still visible in the terminal
// and in CI logs), and writes the parsed results to the file named by -o:
//
//	go test -bench=. -benchmem -run='^$' . | go run ./cmd/benchjson -o BENCH_4.json
//
// Each benchmark line becomes one record with the benchmark name (GOMAXPROCS
// suffix stripped), iteration count, ns/op, and — when -benchmem is on —
// B/op and allocs/op. Context lines (goos/goarch/cpu) are captured into
// the file header, and the git commit hash plus an ISO-8601 timestamp are
// stamped alongside them, so a BENCH_*.json is attributable to the exact
// tree and moment that produced it.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

func run(args []string, in *os.File, out, errw *os.File) int {
	fs := flag.NewFlagSet("benchjson", flag.ContinueOnError)
	fs.SetOutput(errw)
	outPath := fs.String("o", "", "output `file` for the JSON trajectory (required)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *outPath == "" {
		fmt.Fprintln(errw, "benchjson: -o is required")
		return 2
	}

	doc := newPoint()

	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		fmt.Fprintln(out, line)
		if r, ok := parseLine(line); ok {
			doc.Results = append(doc.Results, r)
			continue
		}
		parseContextLine(doc.Context, line)
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(errw, "benchjson: reading input: %v\n", err)
		return 1
	}

	if err := doc.writeFile(*outPath); err != nil {
		fmt.Fprintf(errw, "benchjson: %v\n", err)
		return 1
	}
	fmt.Fprintf(errw, "benchjson: wrote %d results to %s\n", len(doc.Results), *outPath)
	return 0
}
