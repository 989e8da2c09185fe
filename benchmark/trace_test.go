package main

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// Times in the hand-built tree are microseconds for readability.
func us(kind spanKind, start, end int64) span {
	return span{Kind: kind, Start: start * 1000, End: end * 1000}
}

// oneCall is a bound, module-less call: stub 0..100, mediator 2..96,
// ORB.Invoke 4..94, connection 10..90, server residence 30..70 with the
// skeleton 40..60 bracketing prolog, servant and epilog.
func oneCall(offset int64, seq uint32) []span {
	spans := []span{
		us(kindServant, 46, 54), us(kindCall, 0, 100), us(kindConn, 10, 90), us(kindMediator, 2, 96),
		us(kindServerConn, 30, 70), us(kindInvoke, 4, 94), us(kindSkeleton, 40, 60),
		us(kindProlog, 42, 44), us(kindEpilog, 56, 58),
	}
	for i := range spans {
		spans[i].Start += offset * 1000
		spans[i].End += offset * 1000
		if spans[i].Kind < kindConn || spans[i].Kind >= kindSkeleton {
			spans[i].Seq = seq // the conn wrappers do not see the payload
		}
	}
	return spans
}

func TestNestParentsAndSelfTimes(t *testing.T) {
	tree := nest(oneCall(0, 7))
	wantOrder := []spanKind{kindCall, kindMediator, kindInvoke, kindConn, kindServerConn,
		kindSkeleton, kindProlog, kindServant, kindEpilog}
	wantParent := []int{-1, 0, 1, 2, 3, 4, 5, 5, 5}
	wantSelfUs := []int64{6, 4, 10, 40, 20, 8, 2, 8, 2}
	for i, s := range tree.spans {
		if s.Kind != wantOrder[i] {
			t.Fatalf("span %d is %v, want %v", i, s.Kind, wantOrder[i])
		}
		if tree.parent[i] != wantParent[i] {
			t.Errorf("%v: parent %d, want %d", s.Kind, tree.parent[i], wantParent[i])
		}
		if tree.self[i] != wantSelfUs[i]*1000 {
			t.Errorf("%v: self %d ns, want %d us", s.Kind, tree.self[i], wantSelfUs[i])
		}
		if tree.root[i] != 0 {
			t.Errorf("%v: root %d, want 0", s.Kind, tree.root[i])
		}
	}
}

func TestAnalyzeTreesSelfTimesPartitionTheCall(t *testing.T) {
	// Three calls; the second is cut off (its server spans are missing)
	// and must be dropped, not analysed.
	var spans []span
	spans = append(spans, oneCall(0, 1)...)
	for _, s := range oneCall(200, 2) {
		if s.Kind < kindServerConn {
			spans = append(spans, s)
		}
	}
	spans = append(spans, oneCall(400, 3)...)
	res := analyzeTrees([]*callTree{nest(spans)}, func(int64) bool { return true })
	if res.Calls != 2 || res.Dropped != 1 || res.Mislinked != 0 {
		t.Fatalf("calls %d dropped %d mislinked %d, want 2, 1, 0", res.Calls, res.Dropped, res.Mislinked)
	}
	want := map[string]float64{
		"qos.call_us": 100, "qos.client_self_us": 6, "qos.mediator_us": 4, "orb.client_self_us": 10,
		"transport.module_self_us": 0, "netsim.conn_roundtrip_us": 80, "netsim.wire_us": 40,
		"orb.server_residence_us": 40, "orb.server_self_us": 20, "transport.filter_us": 0,
		"qos.skeleton_self_us": 8, "qos.prolog_epilog_us": 4, "bench.servant_us": 8,
	}
	if !reflect.DeepEqual(res.P50Us, want) {
		t.Errorf("trace metrics = %v, want %v", res.P50Us, want)
	}
	if res.SelfSumUs != 100 {
		t.Errorf("self times sum to %v us, want the call's 100", res.SelfSumUs)
	}
	// A keep function that rejects everything leaves nothing to analyse.
	if none := analyzeTrees([]*callTree{nest(spans)}, func(int64) bool { return false }); none.Calls != 0 {
		t.Errorf("calls = %d with nothing kept, want 0", none.Calls)
	}
}

func TestAnalyzeTreesFlagsMislinkedSpans(t *testing.T) {
	spans := oneCall(0, 5)
	for i := range spans {
		if spans[i].Kind == kindServant {
			spans[i].Seq = 6 // a servant span that saw another call's payload
		}
	}
	if res := analyzeTrees([]*callTree{nest(spans)}, func(int64) bool { return true }); res.Mislinked != 1 {
		t.Errorf("mislinked = %d, want 1", res.Mislinked)
	}
}

func TestAttributeByConnectionAddress(t *testing.T) {
	server := []span{{Kind: kindServerConn, Who: 0}, {Kind: kindServerConn, Who: 1}, {Kind: kindSkeleton, Who: 2}, {Kind: kindServant, Who: 9}}
	peers := []string{"127.0.0.1:1000", "127.0.0.1:2000", "127.0.0.1:3000"} // 1000 is the control connection
	got := attribute(server, peers, [][]string{{"127.0.0.1:3000"}, {"127.0.0.1:2000"}})
	if len(got[0]) != 1 || got[0][0].Kind != kindSkeleton || len(got[1]) != 1 || got[1][0].Who != 1 {
		t.Errorf("attribute = %v", got)
	}
}

func TestFrameTracker(t *testing.T) {
	frame := func(size int, little bool) []byte {
		f := append([]byte("GIOP\x01\x00"), 0, 0, 0, 0, 0, 0)
		if little {
			f[6] = 1
			binary.LittleEndian.PutUint32(f[8:], uint32(size))
		} else {
			binary.BigEndian.PutUint32(f[8:], uint32(size))
		}
		return append(f, bytes.Repeat([]byte{0xAA}, size)...)
	}
	var ft frameTracker
	// Header and body in separate reads, as the ORB's frame reader does.
	f := frame(300, false)
	if done, began := ft.feed(f[:12]); done != 0 || !began {
		t.Errorf("header: completed %d began %v, want 0 true", done, began)
	}
	if done, began := ft.feed(f[12:]); done != 1 || began {
		t.Errorf("body: completed %d began %v, want 1 false", done, began)
	}
	// Two messages, one of them empty and little-endian, in one buffer,
	// followed by a split header.
	buf := append(append(frame(0, true), frame(5, true)...), frame(9, false)[:7]...)
	if done, began := ft.feed(buf); done != 2 || !began {
		t.Errorf("batch: completed %d began %v, want 2 true", done, began)
	}
	if done, _ := ft.feed(frame(9, false)[7:]); done != 1 {
		t.Errorf("rest of split message: completed %d, want 1", done)
	}
}

func TestSpanCodecRoundTrip(t *testing.T) {
	spans := []span{{Start: 1, End: 2, Seq: 3, Who: 4, Kind: kindEpilog}, {Start: 1 << 60, End: 1<<60 + 5, Kind: kindCall}}
	got, err := decodeSpans(encodeSpans(spans))
	if err != nil || !reflect.DeepEqual(got, spans) {
		t.Errorf("round trip = %v, %v; want %v", got, err, spans)
	}
	if _, err := decodeSpans(make([]byte, spanWireSize+1)); err == nil {
		t.Error("a truncated chunk decoded without error")
	}
	bad := encodeSpans(spans[:1])
	bad[21] = byte(numKinds)
	if _, err := decodeSpans(bad); err == nil {
		t.Error("an unknown span kind decoded without error")
	}
}
