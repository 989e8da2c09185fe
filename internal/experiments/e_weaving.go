package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/characteristics/compression"
	"maqs/internal/idl"
	"maqs/internal/idl/gen"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// weavingQIDL is the specification the weaver experiment compiles.
const weavingQIDL = `
module bench {
  struct Item { string name; double value; };
  qos Guard { param long strength = 2; void guard_rotate(in string reason); };
  interface Store supports Guard {
    void put(in string key, in Item item);
    Item get(in string key);
    long add(in long a, in long b);
  };
};
`

func weave(tb testing.TB) []byte {
	spec, err := idl.Parse("bench.qidl", weavingQIDL)
	if err != nil {
		tb.Fatal(err)
	}
	code, err := gen.Generate(spec, gen.Options{Source: "bench.qidl"})
	if err != nil {
		tb.Fatal(err)
	}
	return code
}

// e9 is the QIDL compiler as weaver: what one weave costs, a statically
// marshalled call against the dynamic invocation interface, and — the shape
// — the size of the woven mapping relative to its QIDL input.
var e9 = Experiment{
	ID: "E9", Name: "weaving (QIDL mapping)",
	Title: "the QIDL compiler as aspect weaver",
	Claim: "§3.3: 'the QIDL compiler acts as an aspect weaver' — QoS plumbing the application programmer never writes",
	Cases: []Case{
		{"E9StaticVsDII/static", func(tb testing.TB) (func(), int64) {
			return NewWorld(tb, Config{}).Echo(tb, []byte("x")), 0
		}},
		{"E9StaticVsDII/dii", func(tb testing.TB) (func(), int64) {
			w, ctx, octets := NewWorld(tb, Config{}), context.Background(), cdr.SequenceOf(cdr.TCOctet)
			return func() {
				req := w.Client.ORB.CreateRequest(w.Ref, "echo").
					AddArg("p", cdr.Octets([]byte("x")), orb.ArgIn).
					SetResultType(octets)
				if err := req.Invoke(ctx); err != nil {
					tb.Fatal(err)
				}
			}, 0
		}},
		{"E9Weave", func(tb testing.TB) (func(), int64) { return func() { weave(tb) }, 0 }},
	},
	Shape: e9Mapping,
	Notes: []string{"the weaver emits over an order of magnitude more Go than the QIDL it reads — the cross-cutting plumbing the paper wants out of application hands"},
}

func e9Mapping(tb testing.TB) ([]string, [][]string) {
	lines := func(s string) int { return len(strings.Split(strings.TrimSpace(s), "\n")) }
	src := string(weave(tb))
	rows := [][]string{
		{"QIDL input", fmt.Sprintf("%d lines", lines(weavingQIDL))},
		{"woven Go mapping", fmt.Sprintf("%d lines (%.0fx)", lines(src), float64(lines(src))/float64(lines(weavingQIDL)))},
	}
	for _, count := range [][2]string{
		{"stub methods (mediator seam)", "func (c *StoreStub)"},
		{"skeleton dispatch cases", "case \""},
		{"QoS impl skeleton ops", "func (x *GuardImplBase)"},
		{"typed parameter accessors", "func (p GuardParams)"},
	} {
		rows = append(rows, []string{count[0], fmt.Sprint(strings.Count(src, count[1]))})
	}
	return []string{"metric", "value"}, rows
}

// e10 measures the reflective module management: load and unload, locally
// and through remote commands, list, and a module-specific dynamic call.
var e10 = Experiment{
	ID: "E10", Name: "dynamic module control",
	Title: "dynamic loading and control of QoS modules",
	Claim: "§4: 'a simple reflection mechanism allows the extension of the ORB at runtime'",
	Cases: []Case{
		{"E10ModuleControl/list", func(tb testing.TB) (func(), int64) {
			return listModules(tb, NewWorld(tb, Config{})), 0
		}},
		{"E10ModuleControl/moduleCommand", func(tb testing.TB) (func(), int64) {
			return pingModule(tb, NewWorld(tb, Config{Module: "nop", Register: registerNop})), 0
		}},
		{"E10ModuleControl/remoteLoadUnload", func(tb testing.TB) (func(), int64) {
			w := NewWorld(tb, Config{})
			ctl, ctx := transport.NewController(w.Client.ORB, w.Ref), context.Background()
			return func() {
				if err := ctl.Load(ctx, compression.ModuleName, nil); err != nil {
					tb.Fatal(err)
				}
				if err := ctl.Unload(ctx, compression.ModuleName); err != nil {
					tb.Fatal(err)
				}
			}, 0
		}},
		{"E10ModuleControl/localLoadUnload", func(tb testing.TB) (func(), int64) {
			server := NewWorld(tb, Config{}).Servers[0]
			return func() {
				if err := server.LoadModule(compression.ModuleName, nil); err != nil {
					tb.Fatal(err)
				}
				if err := server.Transport.Unload(compression.ModuleName); err != nil {
					tb.Fatal(err)
				}
			}, 0
		}},
	},
	Notes: []string{"module management costs one command round trip — the reflective path reuses the ordinary request machinery, exactly the dual use of the request the paper describes"},
}
