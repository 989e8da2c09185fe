package orb

import (
	"context"
	"time"

	"maqs/internal/giop"
	"maqs/internal/obs"
)

// MulticallResult is the per-element outcome of a batched invocation.
// Err carries local delivery failures (routing, dead connection, context
// expiry); a nil Err with an exceptional Outcome is a remote failure.
type MulticallResult struct {
	Outcome *Outcome
	Err     error
}

// Failed condenses the element into a single error: the local failure,
// the remote exception, or nil on success.
func (r MulticallResult) Failed() error {
	if r.Err != nil {
		return r.Err
	}
	if r.Outcome != nil {
		return r.Outcome.Err()
	}
	return nil
}

// multicallBatchBounds bucket the per-flush element count.
var multicallBatchBounds = obs.Bounds{Le: []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}, Unit: 1}

// batchHeadroom is the conservative per-request overhead estimate (GIOP
// header, request header, contexts) used to route elements that might
// need fragmentation away from the batch path, which cannot fragment.
const batchHeadroom = 512

// batchFlushBytes flushes the accumulating batch buffer before it
// outgrows the encoder pool's retention cap.
const batchFlushBytes = 48 << 10

// batchElem pairs one invocation with its slot in the result slice.
type batchElem struct {
	idx int
	inv *Invocation
	fut *Future
}

// InvokeBatch delivers invs as coalesced GIOP batches — per endpoint, one
// frame sequence flushed in a single write — and waits for every element.
// Results are positional. Elements that cannot be batched (non-IIOP
// routes, installed resilience policy, bodies that would need
// fragmentation, oneway-after-routing edge cases) fall back to the
// asynchronous per-element path, so partial-failure and retry semantics
// are uniform: an element whose request provably never hit the wire
// fails with a NotSentError; later failures surface as the same
// COMM_FAILURE-class exceptions a lone call would see, so the retry and
// breaker stack classifies them identically.
func (o *ORB) InvokeBatch(ctx context.Context, invs []*Invocation) []MulticallResult {
	res := make([]MulticallResult, len(invs))
	futs := make([]*Future, len(invs))

	var groups map[string][]batchElem
	for i, inv := range invs {
		mod, err := o.prepare(ctx, inv)
		if err != nil {
			res[i].Err = err
			continue
		}
		batchable := o.directIIOP(mod) &&
			!(o.opts.MaxFragment > 0 && len(inv.Args)+batchHeadroom > o.opts.MaxFragment)
		if !batchable {
			futs[i], res[i].Err = o.dispatchAsync(ctx, mod, inv, nil)
			continue
		}
		var f *Future
		if inv.ResponseExpected {
			f = acquireFuture(inv)
			f.fl.open(ctx, o, inv)
			futs[i] = f
		}
		if groups == nil {
			groups = make(map[string][]batchElem)
		}
		addr := inv.Target.Profile.Addr()
		groups[addr] = append(groups[addr], batchElem{idx: i, inv: inv, fut: f})
	}

	for addr, elems := range groups {
		conn, err := o.getConn(addr)
		if err != nil {
			failBatch(elems, res, notSent(err))
			continue
		}
		conn.sendBatch(ctx, elems, res)
	}

	for i, fut := range futs {
		if fut == nil {
			continue
		}
		out, err := fut.Wait(ctx)
		res[i] = MulticallResult{Outcome: out, Err: err}
	}
	return res
}

// failBatch resolves every element with err: futures complete (their
// Wait surfaces the failure), oneways record it directly.
func failBatch(elems []batchElem, res []MulticallResult, err error) {
	for _, el := range elems {
		if el.fut != nil {
			el.fut.complete(nil, err)
		} else {
			res[el.idx].Err = err
		}
	}
}

// sendBatch encodes the elements' request frames into one FrameBatch and
// flushes it in as few writes as the pipeline window and the buffer cap
// allow — ideally exactly one. Reply-expecting elements resolve through
// their futures via the read loop; oneways resolve at flush time.
func (c *clientConn) sendBatch(ctx context.Context, elems []batchElem, res []MulticallResult) {
	o := c.orb
	order := o.opts.Order
	fb := giop.AcquireFrameBatch(order)
	defer fb.Release()
	hist := o.Metrics().Histogram("maqs_multicall_batch_size", &multicallBatchBounds)

	// stagedOneways holds result slots to mark successful once their
	// frames are actually on the wire.
	var stagedOneways []int

	flush := func() error {
		n := fb.Frames()
		if n == 0 {
			return nil
		}
		size := fb.Len()
		c.writeMu.Lock()
		err := fb.Flush(c.raw)
		c.writeMu.Unlock()
		if err != nil {
			cause := NewSystemException(ExcCommFailure, 2, "writing batch to %s: %v", c.addr, err)
			// close fails every registered future (the staged ones
			// included) and returns their window slots.
			c.close(cause)
			for _, idx := range stagedOneways {
				res[idx].Err = cause
			}
			stagedOneways = stagedOneways[:0]
			return cause
		}
		hist.Observe(time.Duration(n))
		o.iiop.requestsSent.Add(uint64(n))
		o.iiop.bytesSent.Add(uint64(size))
		for _, idx := range stagedOneways {
			res[idx].Outcome = &Outcome{Status: giop.ReplyNoException, Order: order}
		}
		stagedOneways = stagedOneways[:0]
		return nil
	}

	for k, el := range elems {
		// Same admission as a lone send, except that a full window first
		// puts the staged batch on the wire instead of deadlocking on our
		// own unflushed frames: their replies are what free the slots.
		id, err := c.admit(ctx, el.inv, el.fut, flush)
		if err != nil {
			// The flush failed, the window never freed or the connection
			// is dead: whatever registered earlier was already failed by
			// close, and nothing still staged can be delivered.
			for _, idx := range stagedOneways {
				res[idx].Err = err
			}
			failBatch(elems[k:], res, err)
			return
		}
		marshalRequest(fb.Begin(), id, el.inv)
		if err := fb.Commit(giop.MsgRequest); err != nil {
			c.unregister(id)
			if el.fut != nil {
				el.fut.complete(nil, notSent(err))
			} else {
				res[el.idx].Err = notSent(err)
			}
			continue
		}
		if el.fut == nil {
			stagedOneways = append(stagedOneways, el.idx)
		}
		if fb.Len() >= batchFlushBytes {
			if err := flush(); err != nil {
				failBatch(elems[k+1:], res, err)
				return
			}
		}
	}
	// Final flush: failures here have already resolved every staged
	// element through close / stagedOneways.
	_ = flush()
}
