package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"runtime"
	"time"

	"maqs"
	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
	"maqs/internal/orb"
	"maqs/internal/qos"
)

// The isolated ladder times public entry points of each layer with the
// workload's message shape: one goroutine, an in-memory zero-latency
// netsim.Network where a peer is needed, fixed iteration counts, median
// of ladderBatches batches. Each rung is the previous plus one layer, so
// a layer's cost is a subtraction.

const ladderBatches = 5

// ladderCost is the per-iteration cost of one rung.
type ladderCost struct{ Ns, Allocs, Bytes float64 }

// meter measures rungs. scale divides the iteration counts (1 for a real
// run; the smoke test uses more). The first error sticks: later rungs are
// skipped and the caller checks err once.
type meter struct {
	scale int
	err   error
}

func (m *meter) run(iters int, f func() error) ladderCost {
	if m.err != nil {
		return ladderCost{}
	}
	cost, err := measure(max(iters/m.scale, 4), f)
	m.err = err
	return cost
}

// measure runs f iters times per batch: one untimed batch, then
// ladderBatches timed ones whose medians it returns.
func measure(iters int, f func() error) (ladderCost, error) {
	var ns, allocs, bytes []float64
	var m0, m1 runtime.MemStats
	for b := 0; b <= ladderBatches; b++ {
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			if err := f(); err != nil {
				return ladderCost{}, err
			}
		}
		elapsed := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if b == 0 {
			continue
		}
		ns = append(ns, float64(elapsed)/float64(iters))
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(iters))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(iters))
	}
	return ladderCost{median(ns), median(allocs), median(bytes)}, nil
}

// ladderWorld is the in-memory pair of Systems the ORB-level rungs use.
type ladderWorld struct {
	server, client *maqs.System
	ref            *maqs.IOR
}

func newLadderWorld(w workload) (*ladderWorld, error) {
	n := maqs.NewNetwork()
	server, err := newSystem(maqs.Options{Transport: n.Host("server")}, w, nil)
	if err != nil {
		return nil, err
	}
	lw := &ladderWorld{server: server}
	if err := server.Listen("server:1"); err != nil {
		lw.close()
		return nil, err
	}
	if lw.ref, _, err = activateEcho(server, w, nil); err != nil {
		lw.close()
		return nil, err
	}
	if lw.client, err = newSystem(maqs.Options{Transport: n.Host("client")}, w, nil); err != nil {
		lw.close()
		return nil, err
	}
	if err := registerNull(lw.client, nil); err != nil {
		lw.close()
		return nil, err
	}
	return lw, nil
}

func (lw *ladderWorld) close() {
	if lw.client != nil {
		lw.client.Shutdown()
	}
	lw.server.Shutdown()
}

// loopReader replays one frame forever.
type loopReader struct {
	frame []byte
	pos   int
}

func (r *loopReader) Read(p []byte) (int, error) {
	n := copy(p, r.frame[r.pos:])
	r.pos = (r.pos + n) % len(r.frame)
	return n, nil
}

// frameSink keeps the last frame written to it.
type frameSink struct{ frame []byte }

func (s *frameSink) Write(p []byte) (int, error) {
	s.frame = append(s.frame[:0], p...)
	return len(p), nil
}

// runLadder measures every isolated rung for w.
func runLadder(w workload, seed int64, scale int) (map[string]float64, error) {
	out := make(map[string]float64)
	m := &meter{scale: scale}
	ctx := context.Background()
	order := cdr.BigEndian
	ring := newArgRing(newRand(seed), order, 1, w.Payload)
	args, payload := ring.stamp(0, 0, 1)
	put := func(prefix string, c ladderCost) {
		out[prefix+"_ns"], out[prefix+"_allocs"] = c.Ns, c.Allocs
	}

	// cdr: the pooled encode and the decode of the echo argument.
	enc := m.run(100_000, func() error {
		e := cdr.AcquireEncoder(order)
		e.WriteOctets(payload)
		e.Release()
		return nil
	})
	dec := m.run(100_000, func() error {
		_, err := cdr.NewDecoder(args, order).ReadOctets()
		return err
	})
	out["cdr.encode_ns"], out["cdr.decode_ns"], out["cdr.allocs"] = enc.Ns, dec.Ns, enc.Allocs+dec.Allocs

	// giop: cdr plus request header and framing.
	header := giop.RequestHeader{RequestID: 7, ResponseExpected: true, ObjectKey: []byte("echo"), Operation: opEcho}
	var sink frameSink
	write := m.run(50_000, func() error {
		e := giop.AcquireFrameEncoder(order)
		header.Marshal(e)
		e.WriteOctets(args)
		err := giop.WriteFrame(&sink, giop.MsgRequest, e, 0)
		e.Release()
		return err
	})
	if m.err != nil {
		return nil, m.err
	}
	fr := giop.NewFrameReader(&loopReader{frame: append([]byte(nil), sink.frame...)})
	fr.ReuseBody(true)
	read := m.run(50_000, func() error {
		msg, err := fr.ReadMessage()
		if err != nil {
			return err
		}
		d := msg.Decoder()
		if _, err := giop.UnmarshalRequestHeader(d); err != nil {
			return err
		}
		_, err = d.ReadOctets()
		return err
	})
	out["giop.frame_write_ns"], out["giop.frame_read_ns"], out["giop.allocs"] = write.Ns, read.Ns, write.Allocs+read.Allocs

	lw, err := newLadderWorld(w)
	if err != nil {
		return nil, err
	}
	defer lw.close()

	// ior: parsing a stringified reference and its QoS component.
	refText := lw.ref.String()
	out["ior.parse_ns"] = m.run(10_000, func() error {
		ref, err := ior.Parse(refText)
		if err != nil {
			return err
		}
		_, _, err = ref.QoS()
		return err
	}).Ns

	// orb: giop plus the client and server request loops.
	invocation := func() *orb.Invocation {
		return &orb.Invocation{Target: lw.ref, Operation: opEcho, Args: args, ResponseExpected: true, Order: order}
	}
	inv := invocation()
	put("orb.invoke", m.run(2000, func() error {
		res, err := lw.client.ORB.Invoke(ctx, inv)
		if err != nil {
			return err
		}
		return res.Err()
	}))
	var invs [pipelineDepth]*orb.Invocation
	var futs [pipelineDepth]*orb.Future
	for i := range invs {
		invs[i] = invocation()
	}
	async := m.run(2000/pipelineDepth+1, func() error {
		for i := range invs {
			if futs[i], err = lw.client.ORB.InvokeAsync(ctx, invs[i]); err != nil {
				return err
			}
		}
		for _, f := range futs {
			res, err := f.Wait(ctx)
			if err != nil {
				return err
			}
			if err := res.Err(); err != nil {
				return err
			}
		}
		return nil
	})
	out["orb.async_ns"], out["orb.async_allocs"] = async.Ns/pipelineDepth, async.Allocs/pipelineDepth

	// qos: orb plus the stub, then plus the seam of a Null binding.
	call := func(stub *maqs.Stub) func() error {
		return func() error {
			_, err := stub.Call(ctx, opEcho, args)
			return err
		}
	}
	unbound := m.run(2000, call(lw.client.Stub(lw.ref)))
	put("qos.stub", unbound)
	nullStub := lw.client.Stub(lw.ref)
	nullProposal := &maqs.Proposal{Characteristic: nullName}
	if _, err := nullStub.Negotiate(ctx, nullProposal); err != nil {
		return nil, err
	}
	bound := m.run(2000, call(nullStub))
	out["qos.seam_ns"], out["qos.seam_allocs"] = bound.Ns-unbound.Ns, bound.Allocs-unbound.Allocs
	churnStub := lw.client.Stub(lw.ref)
	put("qos.negotiate", m.run(500, func() error {
		if _, err := churnStub.Negotiate(ctx, nullProposal); err != nil {
			return err
		}
		return churnStub.Release(ctx)
	}))

	// transport and characteristics: routing a tagged invocation, and the
	// workload's module alone with a canned next.
	charStub := nullStub
	if w.Module != "" {
		charStub = lw.client.Stub(lw.ref)
		if _, err := charStub.Negotiate(ctx, &maqs.Proposal{Characteristic: w.Characteristic}); err != nil {
			return nil, err
		}
		if err := call(charStub)(); err != nil { // establishes module state (key exchange)
			return nil, err
		}
	}
	b := charStub.Binding()
	tagged := invocation()
	tagged.Binding = b.Characteristic
	tagged.Contexts = tagged.Contexts.With(giop.SCQoS,
		qos.QoSTag{Characteristic: b.Characteristic, BindingID: b.ID, Module: b.Module}.Encode())
	put("transport.route", m.run(100_000, func() error {
		_, err := lw.client.Transport.Route(tagged)
		return err
	}))

	var send, filter ladderCost
	if w.Module != "" && m.err == nil {
		if send, filter, err = moduleRungs(ctx, lw, w, tagged, m); err != nil {
			return nil, err
		}
	}
	put("characteristics.send", send)
	out["characteristics.send_alloc_bytes"] = send.Bytes
	put("characteristics.filter", filter)
	return out, m.err
}

// moduleRungs times the workload's transport module in isolation: the
// client Send with a next that returns a captured wire reply, and the
// server filter's Inbound plus Outbound on the captured wire request.
func moduleRungs(ctx context.Context, lw *ladderWorld, w workload, tagged *orb.Invocation,
	m *meter) (send, filter ladderCost, err error) {
	client, ok := lw.client.Transport.Module(w.Module)
	if !ok {
		return send, filter, fmt.Errorf("client module %q not loaded", w.Module)
	}
	server, ok := lw.server.Transport.Module(w.Module)
	if !ok {
		return send, filter, fmt.Errorf("server module %q not loaded", w.Module)
	}
	n := 2000
	if w.Characteristic == maqs.Compression {
		n = 100 // a deflate of 4 KiB is two orders slower than a seal of 1 KiB
	}
	var wireArgs, wireReply []byte
	iiop := lw.client.ORB.IIOPModule()
	_, err = client.Send(ctx, tagged, func(ctx context.Context, wrapped *orb.Invocation) (*orb.Outcome, error) {
		wireArgs = append([]byte(nil), wrapped.Args...)
		res, err := iiop.Send(ctx, wrapped)
		if err == nil {
			wireReply = append([]byte(nil), res.Data...)
		}
		return res, err
	})
	if err != nil {
		return send, filter, err
	}
	canned := &orb.Outcome{Status: giop.ReplyNoException, Order: tagged.Order}
	send = m.run(n, func() error {
		_, err := client.Send(ctx, tagged, func(context.Context, *orb.Invocation) (*orb.Outcome, error) {
			canned.Data = wireReply
			return canned, nil
		})
		return err
	})
	f := server.ServerFilter()
	req := &orb.ServerRequest{Operation: opEcho, Contexts: tagged.Contexts, Order: tagged.Order}
	filter = m.run(n, func() error {
		req.Args = wireArgs
		if err := f.Inbound(req); err != nil {
			return err
		}
		_, err := f.Outbound(req, giop.ReplyNoException, req.Args)
		return err
	})
	return send, filter, m.err
}

// tcpRTT is the floor the ORB sits on: the lower-quartile round trip, in
// microseconds, of n raw netsim.TCP ping-pongs with the given request and
// reply sizes between two goroutines of this process over loopback.
func tcpRTT(reqSize, repSize, n int) (float64, error) {
	tcp := &netsim.TCP{}
	l, err := tcp.Listen("127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	served := make(chan error, 1)
	go func() { served <- echoPeer(l, reqSize, repSize) }()
	conn, err := tcp.Dial(l.Addr().String())
	if err != nil {
		return 0, err
	}
	req, rep := make([]byte, reqSize), make([]byte, repSize)
	rtts := make([]float64, 0, n)
	for i := 0; i < n+n/10; i++ {
		t0 := time.Now()
		if _, err = conn.Write(req); err != nil {
			break
		}
		if _, err = io.ReadFull(conn, rep); err != nil {
			break
		}
		if i >= n/10 { // the first tenth warms the path
			rtts = append(rtts, float64(time.Since(t0))/1e3)
		}
	}
	conn.Close()
	if peerErr := <-served; err == nil {
		err = peerErr
	}
	return quantile(rtts, 0.25), err
}

// echoPeer answers each reqSize-byte message on l's first connection with
// repSize bytes until the peer closes.
func echoPeer(l net.Listener, reqSize, repSize int) error {
	conn, err := l.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	req, rep := make([]byte, reqSize), make([]byte, repSize)
	for {
		if _, err := io.ReadFull(conn, req); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if _, err := conn.Write(rep); err != nil {
			return err
		}
	}
}
