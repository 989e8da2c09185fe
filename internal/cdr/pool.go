package cdr

import (
	"sync"
	"sync/atomic"
)

// maxPooledCapacity caps the buffer capacity an Encoder may carry back into
// the pool. Occasional giant payloads (fragmented bulk transfers) would
// otherwise pin megabytes of idle memory under steady small-message load.
const maxPooledCapacity = 64 << 10

// Pool telemetry, process-global like the pool itself. A Get that fell
// through to the pool's New is a miss (hits = gets − misses); Oversize
// counts buffers discarded at Release for exceeding maxPooledCapacity.
// cdr must stay free of an obs dependency, so these are plain atomics
// that the ORB layer re-exports as callback instruments.
var (
	poolGets     atomic.Uint64
	poolMisses   atomic.Uint64
	poolOversize atomic.Uint64
)

// EncoderPoolStats is a point-in-time copy of the pool counters.
type EncoderPoolStats struct {
	Gets     uint64
	Misses   uint64
	Oversize uint64
}

// PoolStats reports cumulative encoder pool activity.
func PoolStats() EncoderPoolStats {
	return EncoderPoolStats{
		Gets:     poolGets.Load(),
		Misses:   poolMisses.Load(),
		Oversize: poolOversize.Load(),
	}
}

// encoderPool recycles Encoders across invocations. The invocation hot path
// (request marshalling, reply marshalling, service-context encoding) builds
// and discards one or more encoders per call; recycling them removes the
// dominant per-call allocations.
var encoderPool = sync.Pool{New: func() any {
	poolMisses.Add(1)
	return new(Encoder)
}}

// AcquireEncoder returns an empty pooled Encoder producing the given byte
// order. Pair it with Release once the encoded bytes have been written out
// or copied; after Release neither the encoder nor any slice obtained from
// Bytes may be used.
func AcquireEncoder(order ByteOrder) *Encoder {
	poolGets.Add(1)
	e := encoderPool.Get().(*Encoder)
	e.Reset(order)
	return e
}

// Reset empties the encoder for reuse, keeping its allocated buffer.
func (e *Encoder) Reset(order ByteOrder) {
	e.buf = e.buf[:0]
	e.order = order
	e.base = 0
}

// Release resets the encoder and returns it to the package pool. Calling
// Release on a nil encoder is a no-op. The caller must not retain e or any
// slice previously returned by Bytes: the backing array will be overwritten
// by the next frame built from the pool.
func (e *Encoder) Release() {
	if e == nil {
		return
	}
	if cap(e.buf) > maxPooledCapacity {
		e.buf = nil
		poolOversize.Add(1)
	}
	e.buf = e.buf[:0]
	e.base = 0
	encoderPool.Put(e)
}

// zeros feeds Skip without a per-call allocation for typical headroom sizes.
var zeros [64]byte

// Skip appends n zero octets and restarts CDR alignment after them. It
// reserves a fixed-size prefix (e.g. a message header) inside the encoder's
// buffer that the caller patches in place once the body length is known,
// allowing header and body to go out in a single write without a copy.
func (e *Encoder) Skip(n int) {
	for n > len(zeros) {
		e.buf = append(e.buf, zeros[:]...)
		n -= len(zeros)
	}
	e.buf = append(e.buf, zeros[:n]...)
	e.base = len(e.buf)
}
