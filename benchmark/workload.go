package main

import (
	"fmt"
	"strings"

	"maqs"
	"maqs/internal/characteristics/compression"
	"maqs/internal/characteristics/encryption"
)

// nullName is the benchmark's pass-through characteristic: binding it adds
// the paper's seam (SCQoS tag, mediator bracket, binding lookup, routing,
// prolog/epilog) and nothing else.
const nullName = "Null"

// pipelineDepth is the in-flight window of pipelined_small.
const pipelineDepth = 32

// callStyle is how a caller drives the reference.
type callStyle int

const (
	// styleSync: each caller waits for its reply before the next call.
	styleSync callStyle = iota
	// stylePipelined: one goroutine keeps pipelineDepth calls in flight.
	stylePipelined
	// styleChurn: one op is negotiate, one bound call, release.
	styleChurn
)

// workload is one fixed set of inputs. All workloads are closed loops:
// an ORB's callers each wait for their reply.
type workload struct {
	Name string
	// Why is the one-line reason recorded in BENCHMARK.json.
	Why string
	// Payload is the echo payload size in bytes.
	Payload int
	// Characteristic is bound before the window ("" leaves the reference
	// unbound); Module is the transport module its binding must name.
	Characteristic, Module string
	Callers                int
	Style                  callStyle
	// Warmup is the number of ops run before the first measured op.
	Warmup int
}

// workloads lists the benchmark's workloads; the names are fixed because
// later issues refer to them.
var workloads = []workload{
	{Name: "plain_small", Payload: 64, Callers: 2, Warmup: 2000,
		Why: "unbound 64 B echo: the smallest-message floor where cdr, giop, orb and the socket do all the work"},
	{Name: "bound_small", Payload: 64, Callers: 2, Warmup: 2000, Characteristic: nullName,
		Why: "same echo bound to a pass-through characteristic: only the paper's seam differs from plain_small (E1)"},
	{Name: "encrypted_1k", Payload: 1024, Callers: 2, Warmup: 2000,
		Characteristic: maqs.Encryption, Module: encryption.ModuleName,
		Why: "1 KiB echo bound to Encryption: the secure module's Send and ServerFilter do most of the added work"},
	{Name: "compressed_4k", Payload: 4096, Callers: 2, Warmup: 200,
		Characteristic: maqs.Compression, Module: compression.ModuleName,
		Why: "4 KiB text bound to Compression: flate dominates time and garbage, and wire bytes fall below payload size"},
	{Name: "pipelined_small", Payload: 64, Callers: 1, Warmup: 2000, Style: stylePipelined,
		Why: "one connection kept 32 deep with CallAsync: futures, window and reply matching instead of the sync path"},
	{Name: "negotiate_churn", Payload: 64, Callers: 2, Warmup: 2000, Characteristic: nullName, Style: styleChurn,
		Why: "negotiate, one bound echo, release per op: binding-state writes beside bound_small's reads (E8)"},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// bound reports whether callers hold one binding for the whole window.
func (w workload) bound() bool { return w.Characteristic != "" && w.Style != styleChurn }
