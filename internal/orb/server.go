package orb

import (
	"fmt"
	"net"
	"sync"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/obs"
)

// activation records one servant registered with the adapter.
type activation struct {
	servant Servant
	typeID  string
	qos     *ior.QoSInfo
}

// Adapter is the object adapter: the registry mapping object keys to
// servants and minting object references for them. The registry is a
// sync.Map because resolve sits on every dispatch while activations are
// rare — reads stay lock-free and uncontended.
type Adapter struct {
	orb *ORB

	servants sync.Map // object key (string) → *activation
}

// Activate registers a servant under the given object key and returns its
// reference. The ORB must be listening (the endpoint goes into the IOR).
func (a *Adapter) Activate(key, typeID string, s Servant) (*ior.IOR, error) {
	return a.activate(key, typeID, s, nil)
}

// ActivateQoS registers a QoS-aware servant: the returned reference
// carries a TagQoS component advertising the supported characteristics
// and transport modules, which is what makes client-side QoS dispatch
// possible (paper Fig. 3).
func (a *Adapter) ActivateQoS(key, typeID string, s Servant, info ior.QoSInfo) (*ior.IOR, error) {
	return a.activate(key, typeID, s, &info)
}

func (a *Adapter) activate(key, typeID string, s Servant, info *ior.QoSInfo) (*ior.IOR, error) {
	if key == "" {
		return nil, fmt.Errorf("orb: activation with empty object key")
	}
	if s == nil {
		return nil, fmt.Errorf("orb: activation of %q with nil servant", key)
	}
	host, port, ok := a.orb.Endpoint()
	if !ok {
		return nil, fmt.Errorf("orb: activate %q: ORB is not listening yet", key)
	}
	act := &activation{servant: s, typeID: typeID, qos: info}
	if _, exists := a.servants.LoadOrStore(key, act); exists {
		return nil, fmt.Errorf("orb: object key %q already active", key)
	}

	ref := ior.New(typeID, host, port, []byte(key))
	if info != nil {
		ref.SetQoS(*info)
	}
	return ref, nil
}

// Deactivate removes the servant under key.
func (a *Adapter) Deactivate(key string) {
	a.servants.Delete(key)
}

// resolve finds the servant for an object key.
func (a *Adapter) resolve(key string) (Servant, bool) {
	v, ok := a.servants.Load(key)
	if !ok {
		return nil, false
	}
	return v.(*activation).servant, true
}

// acceptLoop runs per listener.
func (o *ORB) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		o.mu.Lock()
		if o.shutdown {
			o.mu.Unlock()
			conn.Close()
			return
		}
		o.serverConns[conn] = struct{}{}
		o.mu.Unlock()

		o.wg.Add(1)
		go func() {
			defer o.wg.Done()
			o.serveConn(conn)
		}()
	}
}

// serveConn reads requests off one connection and hands each, as a pooled
// job, to a goroutine of its own, once the admission gate of a bounded QoS
// class has let it in; replies are serialised by a write mutex. The frame
// reader reuses its body buffer across reads, so everything a request
// retains is moved out before the next read: object key, arguments and
// service context payloads go into the job's scratch buffer, the operation
// name comes from the connection's name table. The SCQoS tag is resolved
// here too, against the connection's tag cache.
func (o *ORB) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		o.mu.Lock()
		delete(o.serverConns, conn)
		o.mu.Unlock()
	}()
	var writeMu sync.Mutex
	var handlers sync.WaitGroup
	defer handlers.Wait()
	// Every request reports its peer (diagnostics, accounting, the dispatch
	// span); render the address once, not once per request.
	peer := conn.RemoteAddr().String()

	// Only this loop touches the tag cache and the name table.
	var tags tagCache
	var ops giop.OperationNames

	fr := giop.NewFrameReader(conn)
	fr.ReuseBody(true)
	for {
		msg, err := fr.ReadMessage()
		if err != nil {
			return
		}
		switch msg.Type {
		case giop.MsgRequest:
			job := acquireJob()
			if err := job.decode(msg, &ops); err != nil {
				job.release()
				o.opts.Logger.Warn("orb: malformed request", "err", err)
				o.writeMessageError(conn, &writeMu)
				return
			}
			job.orb, job.conn, job.req.Peer, job.writeMu, job.wg = o, conn, peer, &writeMu, &handlers
			// One decode per binding and connection, none per request:
			// every reader downstream (admission below, filters, skeleton,
			// telemetry) hits the memo filled here.
			tags.fill(&job.req.tag, job.h.Contexts)
			if o.opts.AdmissionPolicy != nil && !o.admit(job) {
				job.release() // shed
				break
			}
			handlers.Add(1)
			go job.run()
		case giop.MsgLocateRequest:
			d := msg.Decoder()
			h, err := giop.UnmarshalLocateRequestHeader(d)
			if err != nil {
				continue
			}
			status := giop.LocateUnknownObject
			if _, ok := o.adapter.resolve(string(h.ObjectKey)); ok {
				status = giop.LocateObjectHere
			}
			e := giop.AcquireFrameEncoder(o.opts.Order)
			(&giop.LocateReplyHeader{RequestID: h.RequestID, Status: status}).Marshal(e)
			writeMu.Lock()
			_ = giop.WriteFrame(conn, giop.MsgLocateReply, e, 0)
			writeMu.Unlock()
			e.Release()
		case giop.MsgCancelRequest:
			// Dispatch is not interruptible; the cancel is a hint we log.
			o.opts.Logger.Debug("orb: cancel request received")
		case giop.MsgCloseConnection:
			return
		case giop.MsgMessageError:
			o.opts.Logger.Warn("orb: peer reported protocol error")
			return
		default:
			o.opts.Logger.Warn("orb: unexpected message on server connection", "type", msg.Type.String())
		}
	}
}

// writeMessageError reports a protocol error to the peer under the
// connection's write mutex — a bare conn write here would tear frames
// against concurrent reply writers.
func (o *ORB) writeMessageError(conn net.Conn, writeMu *sync.Mutex) {
	writeMu.Lock()
	_ = giop.WriteMessage(conn, giop.MsgMessageError, o.opts.Order, nil)
	writeMu.Unlock()
}

// handleRequest runs one request through filters, command handling or
// servant dispatch, and writes the reply. The request is the job's own and
// is scrubbed with it once the reply is written, so servants and filters
// must not retain the request, its object key, its argument bytes or its
// context payloads past the dispatch: all of them live in the job's scratch.
func (o *ORB) handleRequest(job *dispatchJob) {
	h, req := &job.h, &job.req
	order := req.Order
	req.ObjectKey, req.Operation, req.Contexts = h.ObjectKey, h.Operation, h.Contexts
	req.Out = cdr.AcquireEncoder(order)
	req.OneWay = !h.ResponseExpected

	ob := o.obsState.Load()
	var start time.Time
	var dd *dispatchDims
	var op, class string
	if ob != nil {
		start = time.Now()
		op, class = job.labels()
		// The per-(operation, QoS class) cell widens every dispatch
		// instrument: requests, errors, latency and in-flight depth all
		// exist labeled alongside the unlabeled aggregates.
		dd = ob.dims(op, class)
		ob.inflight.Add(1)
		dd.inflight.Add(1)
		var parent obs.SpanContext
		if tp, ok := h.Contexts.Get(giop.SCTrace); ok {
			parent, _ = obs.ParseTraceparent(tp)
		}
		req.Span = ob.bundle.Tracer.StartRemote(parent, "server.dispatch")
		if parent.Valid() {
			// The caller traces this request: capture our spans' summaries
			// so the reply can carry them back (SCTraceReturn). Armed
			// before dispatch so servant/prolog/epilog children inherit it.
			req.Span.CaptureReturn()
		}
		req.Span.SetOperation(op)
		req.Span.SetAttr("peer", req.Peer)
	}

	status, body := o.dispatch(req)

	var pd *phaseDims
	if ob != nil {
		elapsed := time.Since(start)
		ob.inflight.Add(-1)
		dd.inflight.Add(-1)
		ob.requests.Inc()
		dd.requests.Inc()
		ob.latency.Observe(elapsed)
		dd.latency.Observe(elapsed)
		// Decompose the dispatch wall time: the servant's own execution
		// (stamped by invokeServant) versus the routing/filter/marshal
		// overhead around it.
		pd = ob.phase(class)
		servant := time.Duration(req.servantNs)
		if servant > 0 {
			pd.servant.Observe(servant)
		}
		if overhead := elapsed - servant; overhead > 0 {
			pd.dispatch.Observe(overhead)
		}
		if status != giop.ReplyNoException && status != giop.ReplyLocationForward {
			ob.errors.Inc()
			dd.errors.Inc()
			req.Span.SetAttr("reply_status", status.String())
		}
		req.Span.End()
		// After End the dispatch span's own summary is in the capture;
		// piggyback the encoded set on the reply. Nil payload (capture
		// unarmed, or over budget) attaches nothing.
		if payload := req.Span.ReturnPayload(); payload != nil {
			req.OutContexts = req.OutContexts.With(giop.SCTraceReturn, payload)
		}
	}

	if !h.ResponseExpected {
		req.Out.Release()
		return
	}
	var wireStart time.Time
	if pd != nil {
		wireStart = time.Now()
	}
	e := giop.AcquireFrameEncoder(order)
	rh := giop.ReplyHeader{Contexts: req.OutContexts, RequestID: h.RequestID, Status: status}
	rh.Marshal(e)
	e.WriteOctets(body)
	job.writeMu.Lock()
	err := giop.WriteFrame(job.conn, giop.MsgReply, e, o.opts.MaxFragment)
	job.writeMu.Unlock()
	e.Release()
	if pd != nil {
		pd.replyWire.Observe(time.Since(wireStart))
	}
	// body may alias req.Out's buffer; it has been copied into the reply
	// frame above, so the dispatch encoder can go back to the pool now.
	req.Out.Release()
	if err != nil {
		o.opts.Logger.Warn("orb: writing reply failed", "err", err)
	}
}

// dispatch implements the server half of the request path: commands go to
// the command handler, everything else through filters to the servant.
func (o *ORB) dispatch(req *ServerRequest) (giop.ReplyStatus, []byte) {
	// Command-tagged requests bypass filters and the adapter: they are
	// interpreted by the QoS transport (paper §4).
	if data, isCommand := req.Contexts.Get(giop.SCCommand); isCommand {
		o.mu.Lock()
		handler := o.commandHandler
		o.mu.Unlock()
		if handler == nil {
			return encodeError(req, NewSystemException(ExcNoImplement, 20, "no QoS transport installed"))
		}
		target, err := decodeCommandTarget(data)
		if err != nil {
			return encodeError(req, NewSystemException(ExcMarshal, 21, "bad command target: %v", err))
		}
		if err := handler.HandleCommand(target, req); err != nil {
			return encodeError(req, err)
		}
		return giop.ReplyNoException, req.Out.Bytes()
	}

	filters := o.currentFilters()
	for i, f := range filters {
		if err := f.Inbound(req); err != nil {
			return encodeError(req, NewSystemException(ExcInternal, 22, "inbound filter %d: %v", i, err))
		}
	}

	status, body := o.invokeServant(req)

	for i := len(filters) - 1; i >= 0; i-- {
		var err error
		body, err = filters[i].Outbound(req, status, body)
		if err != nil {
			return encodeError(req, NewSystemException(ExcInternal, 23, "outbound filter %d: %v", i, err))
		}
	}
	return status, body
}

func (o *ORB) invokeServant(req *ServerRequest) (giop.ReplyStatus, []byte) {
	servant, ok := o.adapter.resolve(string(req.ObjectKey))
	if !ok {
		return encodeError(req, NewSystemException(ExcObjectNotExist, 1, "no servant for key %q", req.ObjectKey))
	}
	if o.obsState.Load() == nil {
		if err := servant.Invoke(req); err != nil {
			return encodeError(req, err)
		}
		return giop.ReplyNoException, req.Out.Bytes()
	}
	// Servant-phase timing feeds the dispatch decomposition (handleRequest
	// subtracts it from the dispatch wall time).
	t0 := time.Now()
	err := servant.Invoke(req)
	req.servantNs = int64(time.Since(t0))
	if err != nil {
		return encodeError(req, err)
	}
	return giop.ReplyNoException, req.Out.Bytes()
}

// encodeError renders an error as an exceptional reply body.
func encodeError(req *ServerRequest, err error) (giop.ReplyStatus, []byte) {
	out := outcomeFromError(err, req.Order)
	return out.Status, out.Data
}

// EncodeCommandTarget builds the SCCommand service context payload
// addressing the named module (empty string: the transport itself).
func EncodeCommandTarget(module string) []byte {
	e := cdr.NewEncoder(cdr.BigEndian)
	end := e.BeginEncapsulation()
	e.WriteString(module)
	end()
	return e.Bytes()
}

// decodeCommandTarget parses an SCCommand payload.
func decodeCommandTarget(data []byte) (string, error) {
	d, err := cdr.NewDecoder(data, cdr.BigEndian).BeginEncapsulation()
	if err != nil {
		return "", fmt.Errorf("orb: decoding command target: %w", err)
	}
	target, err := d.ReadString()
	if err != nil {
		return "", fmt.Errorf("orb: decoding command target name: %w", err)
	}
	return target, nil
}
