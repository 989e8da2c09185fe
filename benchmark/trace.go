package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// callTree is the spans of one caller nested by containment: a span's
// parent is the innermost span that covers its whole interval.
type callTree struct {
	spans  []span
	parent []int   // index into spans, -1 for none
	self   []int64 // duration minus the part direct children cover
	root   []int   // index of the kindCall span above each span, -1 for none

	// calls holds one profile per complete call in call order, roots the
	// index of each one's kindCall span; dropped counts the calls left out
	// as incomplete.
	calls   []callProfile
	roots   []int
	dropped int
}

// nest builds the tree of one caller's spans. A caller makes one call at
// a time, so its spans (its own and the server's for its connection) nest
// properly; a span that straddles its predecessor is left without parent.
func nest(spans []span) *callTree {
	t := &callTree{spans: append([]span(nil), spans...)}
	sort.SliceStable(t.spans, func(i, j int) bool {
		a, b := t.spans[i], t.spans[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.End != b.End {
			return a.End > b.End
		}
		return a.Kind < b.Kind // equal intervals: the outer port first
	})
	n := len(t.spans)
	t.parent, t.self, t.root = make([]int, n), make([]int64, n), make([]int, n)
	var stack []int
	for i, s := range t.spans {
		for len(stack) > 0 && t.spans[stack[len(stack)-1]].End < s.End {
			stack = stack[:len(stack)-1]
		}
		t.parent[i], t.root[i] = -1, -1
		t.self[i] = s.End - s.Start
		if len(stack) > 0 {
			p := stack[len(stack)-1]
			t.parent[i] = p
			t.root[i] = t.root[p]
			t.self[p] -= s.End - s.Start
		}
		if s.Kind == kindCall {
			t.root[i] = i
		}
		stack = append(stack, i)
	}
	t.profile()
	return t
}

// callProfile is where one call's time went: per span kind, the summed
// duration, the summed self time and the span count.
type callProfile struct {
	Dur, Self [numKinds]int64
	N         [numKinds]int
}

// complete reports whether the call's tree reaches from the stub to the
// inner servant, i.e. no span of the path was cut off by arming.
func (p *callProfile) complete() bool {
	return p.N[kindCall] == 1 && p.N[kindConn] > 0 && p.N[kindServerConn] == p.N[kindConn] &&
		p.N[kindSkeleton] == p.N[kindConn] && p.N[kindServant] == 1
}

// profile folds the tree into one profile per complete call.
func (t *callTree) profile() {
	byRoot := make(map[int]*callProfile)
	var roots []int
	for i, s := range t.spans {
		r := t.root[i]
		if r < 0 {
			continue
		}
		p := byRoot[r]
		if p == nil {
			p = &callProfile{}
			byRoot[r] = p
			roots = append(roots, r)
		}
		p.Dur[s.Kind] += s.End - s.Start
		p.Self[s.Kind] += t.self[i]
		p.N[s.Kind]++
	}
	sort.Ints(roots)
	for _, r := range roots {
		if p := byRoot[r]; p.complete() {
			t.calls = append(t.calls, *p)
			t.roots = append(t.roots, r)
		} else {
			t.dropped++
		}
	}
}

// traceMetric is one per-op figure derived from a call profile, in ns.
type traceMetric struct {
	Name string
	// InSum marks the self times: they partition the call, so their sum
	// is the call's duration.
	InSum bool
	Of    func(p *callProfile) int64
}

// traceMetrics maps span kinds to the per-layer metrics of the traced
// run. Layer = package name.
var traceMetrics = []traceMetric{
	{"qos.call_us", false, func(p *callProfile) int64 { return p.Dur[kindCall] }},
	{"qos.client_self_us", true, func(p *callProfile) int64 { return p.Self[kindCall] }},
	{"qos.mediator_us", true, func(p *callProfile) int64 { return p.Self[kindMediator] }},
	{"orb.client_self_us", true, func(p *callProfile) int64 { return p.Self[kindInvoke] + p.Self[kindModuleNext] }},
	{"transport.module_self_us", true, func(p *callProfile) int64 { return p.Self[kindModule] }},
	{"netsim.conn_roundtrip_us", false, func(p *callProfile) int64 { return p.Dur[kindConn] }},
	{"netsim.wire_us", true, func(p *callProfile) int64 { return p.Self[kindConn] }},
	{"orb.server_residence_us", false, func(p *callProfile) int64 { return p.Dur[kindServerConn] }},
	{"orb.server_self_us", true, func(p *callProfile) int64 { return p.Self[kindServerConn] }},
	{"transport.filter_us", true, func(p *callProfile) int64 { return p.Self[kindFilterIn] + p.Self[kindFilterOut] }},
	{"qos.skeleton_self_us", true, func(p *callProfile) int64 { return p.Self[kindSkeleton] }},
	{"qos.prolog_epilog_us", true, func(p *callProfile) int64 { return p.Self[kindProlog] + p.Self[kindEpilog] }},
	{"bench.servant_us", true, func(p *callProfile) int64 { return p.Self[kindServant] }},
}

// traceResult is the outcome of analysing a traced window.
type traceResult struct {
	// P50Us is each trace metric's per-op median in microseconds.
	P50Us map[string]float64
	// SelfSumUs is the sum of the self-time medians.
	SelfSumUs float64
	Calls     int // complete call trees analysed
	Dropped   int // calls cut off by arming or a full recorder
	Mislinked int // server spans whose payload call id contradicts their tree
}

// medianNs returns the median of v in microseconds.
func medianNs(v []int64) float64 {
	f := make([]float64, len(v))
	for i, x := range v {
		f[i] = float64(x)
	}
	return median(f) / 1e3
}

// analyzeTrees derives the trace metrics of a synchronous workload from
// per-caller trees, using the calls whose root span's end time keep
// accepts.
func analyzeTrees(trees []*callTree, keep func(end int64) bool) traceResult {
	res := traceResult{P50Us: make(map[string]float64)}
	var all []callProfile
	for _, t := range trees {
		for i, p := range t.calls {
			if keep(t.spans[t.roots[i]].End) {
				all = append(all, p)
			}
		}
		res.Dropped += t.dropped
		for i, s := range t.spans {
			if r := t.root[i]; r >= 0 && s.Seq != 0 && t.spans[r].Seq != s.Seq {
				res.Mislinked++
			}
		}
	}
	res.Calls = len(all)
	vals := make([]int64, len(all))
	for _, m := range traceMetrics {
		for i := range all {
			vals[i] = m.Of(&all[i])
		}
		res.P50Us[m.Name] = medianNs(vals)
		if m.InSum {
			res.SelfSumUs += res.P50Us[m.Name]
		}
	}
	return res
}

// analyzeAggregates derives the trace metrics of pipelined_small, whose
// overlapping calls do not nest: per-name median durations, differenced
// along the path. Stub and ORB client time cannot be told apart without
// a mediator probe and are reported together as orb.client_self_us.
func analyzeAggregates(spans []span) traceResult {
	var durs [numKinds][]int64
	for _, s := range spans {
		durs[s.Kind] = append(durs[s.Kind], s.End-s.Start)
	}
	p50 := func(k spanKind) float64 { return medianNs(durs[k]) }
	pos := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		return v
	}
	res := traceResult{P50Us: make(map[string]float64), Calls: len(durs[kindCall])}
	for _, m := range traceMetrics {
		res.P50Us[m.Name] = 0
	}
	res.P50Us["qos.call_us"] = p50(kindCall)
	res.P50Us["netsim.conn_roundtrip_us"] = p50(kindConn)
	res.P50Us["orb.server_residence_us"] = p50(kindServerConn)
	res.P50Us["orb.client_self_us"] = pos(p50(kindCall) - p50(kindConn))
	res.P50Us["netsim.wire_us"] = pos(p50(kindConn) - p50(kindServerConn))
	res.P50Us["orb.server_self_us"] = pos(p50(kindServerConn) - p50(kindSkeleton))
	res.P50Us["qos.skeleton_self_us"] = pos(p50(kindSkeleton) - p50(kindServant))
	res.P50Us["bench.servant_us"] = p50(kindServant)
	for _, m := range traceMetrics {
		if m.InSum {
			res.SelfSumUs += res.P50Us[m.Name]
		}
	}
	return res
}

// attribute splits the server's spans by caller: a server span belongs to
// the caller whose connection's local address is the remote address of
// the accepted connection the span names.
func attribute(server []span, peers []string, callerAddrs [][]string) [][]span {
	owner := make(map[string]int)
	for c, addrs := range callerAddrs {
		for _, a := range addrs {
			owner[a] = c
		}
	}
	out := make([][]span, len(callerAddrs))
	for _, s := range server {
		if int(s.Who) >= len(peers) {
			continue
		}
		if c, ok := owner[peers[s.Who]]; ok {
			out[c] = append(out[c], s)
		}
	}
	return out
}

// traceLine is one line of trace-<workload>.jsonl.
type traceLine struct {
	ID     int    `json:"id"`
	Parent *int   `json:"parent"` // id of the enclosing span; null for a root
	Name   string `json:"name"`
	Proc   string `json:"proc"` // "client" or "server"
	Call   string `json:"call"` // "c<caller>-<seq>" of the tree's root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	SelfNs int64  `json:"self_ns"`
}

// maxTraceCalls bounds the calls written to a trace file per caller; the
// metrics use every recorded call.
const maxTraceCalls = 1000

// writeTrace writes the first complete call trees of every caller as
// JSON lines.
func writeTrace(path string, trees []*callTree) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for caller, t := range trees {
		roots := t.roots
		if len(roots) > maxTraceCalls {
			roots = roots[:maxTraceCalls]
		}
		keep := make(map[int]bool, len(roots))
		for _, r := range roots {
			keep[r] = true
		}
		ids := make(map[int]int)
		for i, s := range t.spans {
			r := t.root[i]
			if r < 0 || !keep[r] {
				continue
			}
			line := traceLine{ID: id, Name: s.Kind.String(), Proc: "client",
				Call: fmt.Sprintf("c%d-%d", caller, t.spans[r].Seq), Start: s.Start, End: s.End, SelfNs: t.self[i]}
			if s.Kind >= kindServerConn {
				line.Proc = "server"
			}
			if p := t.parent[i]; p >= 0 {
				pid := ids[p]
				line.Parent = &pid
			}
			ids[i] = id
			id++
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeFlatTrace writes the first spans of a pipelined run, whose calls
// overlap and therefore carry no parent links.
func writeFlatTrace(path string, client, server []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	id := 0
	for i, spans := range [][]span{client, server} {
		if len(spans) > 4*maxTraceCalls {
			spans = spans[:4*maxTraceCalls]
		}
		for _, s := range spans {
			line := traceLine{ID: id, Name: s.Kind.String(), Proc: [...]string{"client", "server"}[i],
				Start: s.Start, End: s.End, SelfNs: s.End - s.Start}
			if s.Seq != 0 {
				line.Call = fmt.Sprintf("c%d-%d", s.Who, s.Seq)
			}
			id++
			if err := enc.Encode(line); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
