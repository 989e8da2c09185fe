package experiments

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// e1 measures the cost of the woven interception points: a plain
// invocation, the QoS tag with the prolog/epilog bracket on the server
// skeleton, and the mediator delegation on the stub on top of that.
var e1 = Experiment{
	ID: "E1", Name: "interception overhead",
	Title: "interception overhead per call (in-memory link)",
	Claim: "§3.3: the QoS seams are injected 'transparently to client and service' — their cost must be small against a remote call",
	Cases: e1Cases(),
	Notes: []string{"the woven seams add a fixed per-call cost; on any real network link it vanishes in propagation delay"},
}

func e1Cases() []Case {
	var cases []Case
	for _, size := range []int{0, 64, 1024} {
		for _, variant := range []string{"plain", "bound", "mediated"} {
			cases = append(cases, Case{fmt.Sprintf("E1Interception/%s/%dB", variant, size), func(tb testing.TB) (func(), int64) {
				cfg := NullBound()
				if variant == "plain" {
					cfg.Proposal = nil
				}
				w := NewWorld(tb, cfg)
				if variant == "mediated" {
					w.Stub.SetMediator(&qos.BaseMediator{Char: "Null"})
				}
				return w.Echo(tb, bytes.Repeat([]byte{0xA5}, size)), 0
			}})
		}
	}
	return cases
}

// e2 measures each branch of the paper's Fig. 3 decision tree.
var e2 = Experiment{
	ID: "E2", Name: "ORB dispatch branches (Fig. 3)",
	Title: "per-branch round trip of the Fig. 3 dispatch",
	Claim: "§4: the reflective dispatch ('With QoS?' / 'Module?' / 'Command?') must not burden the plain path",
	Cases: e2Cases(),
	Notes: []string{"every case checks on the transports' dispatch counters that its call took the branch it is named after"},
}

func e2Cases() []Case {
	unbound := NullBound()
	unbound.Proposal = nil
	viaNop := Config{Impl: passThrough("Null", "nop"), Proposal: propose("Null"), Module: "nop", Register: registerNop}
	echo := func(tb testing.TB, w *World) func() { return w.Echo(tb, []byte("x")) }
	client := func(w *World) transport.DispatchCounts { return w.Client.Transport.Counts() }
	server := func(w *World) transport.DispatchCounts { return w.Servers[0].Transport.Counts() }

	var cases []Case
	for _, branch := range []struct {
		name string
		cfg  Config
		op   func(testing.TB, *World) func()
		took func(*World) uint64 // the Fig. 3 counter the branch moves
	}{
		{"plainIIOP", unbound, echo, func(w *World) uint64 { return client(w).PlainIIOP }},
		{"qosFallback", NullBound(), echo, func(w *World) uint64 { return client(w).QoSFallback }},
		{"qosModule", viaNop, echo, func(w *World) uint64 { return client(w).QoSModule }},
		{"commandTransport", unbound, listModules, func(w *World) uint64 { return server(w).TransportCommands }},
		{"commandModule", viaNop, pingModule, func(w *World) uint64 { return server(w).ModuleCommands }},
	} {
		cases = append(cases, Case{"E2Dispatch/" + branch.name, func(tb testing.TB) (func(), int64) {
			w := NewWorld(tb, branch.cfg)
			op := branch.op(tb, w)
			before := branch.took(w)
			op()
			if branch.took(w) != before+1 {
				tb.Fatalf("the call did not take the %s branch", branch.name)
			}
			return op, 0
		}})
	}
	return cases
}

// listModules is a command the server's transport interprets itself.
func listModules(tb testing.TB, w *World) func() {
	ctl, ctx := transport.NewController(w.Client.ORB, w.Ref), context.Background()
	return func() {
		if _, err := ctl.List(ctx); err != nil {
			tb.Fatal(err)
		}
	}
}

// pingModule is a command the transport hands to the nop module's dynamic
// interface (DII on the server side).
func pingModule(tb testing.TB, w *World) func() {
	ctl, ctx := transport.NewController(w.Client.ORB, w.Ref), context.Background()
	return func() {
		if _, err := ctl.ModuleCommand(ctx, "nop", "ping", nil); err != nil {
			tb.Fatal(err)
		}
	}
}
