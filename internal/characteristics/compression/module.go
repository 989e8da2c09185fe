package compression

import (
	"bytes"
	"compress/flate"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"sync"
	"sync/atomic"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// Wire format of a flate-wrapped payload: one flag octet (0 = stored,
// 1 = deflate), the original length as ULong, then the body bytes.
const (
	frameStored  byte = 0
	frameDeflate byte = 1
)

// Stats counts the module's traffic for the bandwidth experiments.
type Stats struct {
	// RawBytes is the total payload size before compression.
	RawBytes uint64
	// WireBytes is the total payload size after compression.
	WireBytes uint64
	// Compressed and Stored count payloads per frame type.
	Compressed, Stored uint64
}

// maxOrigLen caps the original length a frame may declare.
const maxOrigLen = 64 << 20

// maxDeflateRatio bounds how far deflate can expand: a length-258 match
// costs at least two bits, so no stream inflates to more than 1032 times
// its size. unwrap uses it to refuse a declared length the body cannot
// possibly produce before allocating for it.
const maxDeflateRatio = 1032

// Module is the "flate" transport module.
//
// Everything that follows from the module's configuration alone — the
// deflate writer for its level (~650 KB of tables) and the inflate
// reader — is built on first use and reused, not rebuilt per payload.
// A codec is owned by exactly one wrap or unwrap call between Get and
// Put, so concurrent callers never share one; the pools hold at most one
// per concurrently active caller and the garbage collector trims them.
type Module struct {
	level   int
	minSize int

	deflaters sync.Pool // *deflater
	inflaters sync.Pool // *inflater

	rawBytes, wireBytes, compressed, stored atomic.Uint64
}

var _ transport.Module = (*Module)(nil)

// NewModule constructs the module from a config with optional "level"
// (1..9, default 6) and "min_size" (bytes, default 128) keys. It is the
// transport factory for ModuleName.
func NewModule(_ *transport.Transport, config map[string]string) (transport.Module, error) {
	m := &Module{level: 6, minSize: 128}
	if v, ok := config["level"]; ok {
		level, err := strconv.Atoi(v)
		if err != nil || level < 1 || level > 9 {
			return nil, fmt.Errorf("compression: bad level %q", v)
		}
		m.level = level
	}
	if v, ok := config["min_size"]; ok {
		minSize, err := strconv.Atoi(v)
		if err != nil || minSize < 0 {
			return nil, fmt.Errorf("compression: bad min_size %q", v)
		}
		m.minSize = minSize
	}
	return m, nil
}

// Name implements transport.Module.
func (m *Module) Name() string { return ModuleName }

// Close implements transport.Module.
func (m *Module) Close() error { return nil }

// Stats snapshots the traffic counters.
func (m *Module) Stats() Stats {
	return Stats{
		RawBytes:   m.rawBytes.Load(),
		WireBytes:  m.wireBytes.Load(),
		Compressed: m.compressed.Load(),
		Stored:     m.stored.Load(),
	}
}

func (m *Module) account(raw, wire int, compressed bool) {
	m.rawBytes.Add(uint64(raw))
	m.wireBytes.Add(uint64(wire))
	if compressed {
		m.compressed.Add(1)
	} else {
		m.stored.Add(1)
	}
}

// frameSink is the deflate writer's destination: it appends to a buffer
// of fixed capacity and refuses (errFrameFull) what does not fit, which
// also stops the writer early on incompressible input.
type frameSink struct {
	buf []byte
}

var errFrameFull = errors.New("compression: frame buffer full")

func (s *frameSink) Write(p []byte) (int, error) {
	if len(p) > cap(s.buf)-len(s.buf) {
		return 0, errFrameFull
	}
	s.buf = append(s.buf, p...)
	return len(p), nil
}

// deflater is a reusable deflate writer bound to its sink.
type deflater struct {
	w    *flate.Writer
	sink frameSink
}

// inflater is a reusable inflate reader bound to its source.
type inflater struct {
	r   io.ReadCloser // also a flate.Resetter
	src bytes.Reader
}

// deflate compresses p behind the frame header already in out and
// returns the grown frame, or ok == false when the deflate frame would
// not be smaller than a stored one (it must fit below cap(out)).
func (m *Module) deflate(out, p []byte) (frame []byte, ok bool, err error) {
	d, _ := m.deflaters.Get().(*deflater)
	if d == nil {
		d = &deflater{}
		if d.w, err = flate.NewWriter(&d.sink, m.level); err != nil {
			return nil, false, fmt.Errorf("compression: creating writer: %w", err)
		}
	}
	d.sink.buf = out
	d.w.Reset(&d.sink)
	_, err = d.w.Write(p)
	if err == nil {
		err = d.w.Close()
	}
	frame, d.sink.buf = d.sink.buf, nil
	m.deflaters.Put(d) // Reset on next use clears a sticky write error
	switch {
	case errors.Is(err, errFrameFull):
		return nil, false, nil
	case err != nil:
		return nil, false, fmt.Errorf("compression: compressing: %w", err)
	}
	return frame, len(frame) < cap(out), nil
}

// wrap frames (and possibly compresses) a payload. The frame is built in
// one buffer sized for the stored form, which is also the largest deflate
// frame worth sending.
func (m *Module) wrap(p []byte) ([]byte, error) {
	out := make([]byte, 5, len(p)+5)
	putULongBE(out[1:5], uint32(len(p)))
	if len(p) >= m.minSize {
		out[0] = frameDeflate
		frame, ok, err := m.deflate(out, p)
		if err != nil {
			return nil, err
		}
		if ok {
			m.account(len(p), len(frame), true)
			return frame, nil
		}
		// Incompressible payloads can grow; fall back to stored.
	}
	out[0] = frameStored
	out = append(out, p...)
	m.account(len(p), len(out), false)
	return out, nil
}

// unwrap reverses wrap.
func (m *Module) unwrap(p []byte) ([]byte, error) {
	if len(p) < 5 {
		return nil, fmt.Errorf("compression: frame too short (%d bytes)", len(p))
	}
	origLen := getULongBE(p[1:5])
	if origLen > maxOrigLen {
		return nil, fmt.Errorf("compression: original length %d exceeds limit", origLen)
	}
	switch p[0] {
	case frameStored:
		if int(origLen) != len(p)-5 {
			return nil, fmt.Errorf("compression: stored frame length mismatch")
		}
		return p[5:], nil
	case frameDeflate:
		// The header is the peer's claim; do not allocate for more than
		// the body could inflate to.
		if uint64(origLen) > uint64(len(p)-5)*maxDeflateRatio {
			return nil, fmt.Errorf("compression: original length %d impossible for a %d-byte deflate body", origLen, len(p)-5)
		}
		return m.inflate(p[5:], int(origLen))
	default:
		return nil, fmt.Errorf("compression: unknown frame type %d", p[0])
	}
}

// inflate decompresses body, which must hold exactly origLen bytes.
func (m *Module) inflate(body []byte, origLen int) ([]byte, error) {
	f, _ := m.inflaters.Get().(*inflater)
	if f == nil {
		f = &inflater{}
		f.r = flate.NewReader(&f.src)
	}
	f.src.Reset(body)
	if err := f.r.(flate.Resetter).Reset(&f.src, nil); err != nil {
		return nil, fmt.Errorf("compression: resetting reader: %w", err)
	}
	defer func() {
		f.src.Reset(nil) // do not pin the caller's frame from the pool
		m.inflaters.Put(f)
	}()
	out := make([]byte, origLen)
	if _, err := io.ReadFull(f.r, out); err != nil {
		return nil, fmt.Errorf("compression: decompressing: %w", err)
	}
	// Trailing output would mean a corrupted frame.
	var tail [1]byte
	if n, _ := f.r.Read(tail[:]); n != 0 {
		return nil, fmt.Errorf("compression: trailing bytes after deflate stream")
	}
	return out, nil
}

// Send implements transport.Module: compress the request payload, send,
// decompress the reply.
func (m *Module) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	args, err := m.wrap(inv.Args)
	if err != nil {
		return nil, err
	}
	wrapped := *inv // only Args change; the context list is shared
	wrapped.Args = args
	out, err := next(ctx, &wrapped)
	if err != nil {
		return nil, err
	}
	if out.Status != giop.ReplyNoException {
		return out, nil // exceptions travel uncompressed
	}
	data, err := m.unwrap(out.Data)
	if err != nil {
		return nil, err
	}
	out.Data = data
	return out, nil
}

// ServerFilter implements transport.Module.
func (m *Module) ServerFilter() orb.IncomingFilter { return (*serverFilter)(m) }

type serverFilter Module

func (f *serverFilter) Inbound(req *orb.ServerRequest) error {
	args, err := (*Module)(f).unwrap(req.Args)
	if err != nil {
		return err
	}
	req.Args = args
	return nil
}

func (f *serverFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	if status != giop.ReplyNoException {
		return body, nil
	}
	return (*Module)(f).wrap(body)
}

// Dynamic implements transport.Module: the module-specific dynamic
// interface exposes its traffic statistics.
func (m *Module) Dynamic() *orb.DynamicServant {
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"stats": {
			Result: cdr.StructOf("FlateStats",
				cdr.Field{Name: "raw", Type: cdr.TCULongLong},
				cdr.Field{Name: "wire", Type: cdr.TCULongLong},
				cdr.Field{Name: "compressed", Type: cdr.TCULongLong},
				cdr.Field{Name: "stored", Type: cdr.TCULongLong},
			),
			Handler: func([]cdr.Any) (cdr.Any, error) {
				s := m.Stats()
				tc := cdr.StructOf("FlateStats",
					cdr.Field{Name: "raw", Type: cdr.TCULongLong},
					cdr.Field{Name: "wire", Type: cdr.TCULongLong},
					cdr.Field{Name: "compressed", Type: cdr.TCULongLong},
					cdr.Field{Name: "stored", Type: cdr.TCULongLong},
				)
				return cdr.NewAny(tc, map[string]cdr.Any{
					"raw":        cdr.NewAny(cdr.TCULongLong, s.RawBytes),
					"wire":       cdr.NewAny(cdr.TCULongLong, s.WireBytes),
					"compressed": cdr.NewAny(cdr.TCULongLong, s.Compressed),
					"stored":     cdr.NewAny(cdr.TCULongLong, s.Stored),
				}), nil
			},
		},
	}}
}

func putULongBE(p []byte, v uint32) {
	p[0] = byte(v >> 24)
	p[1] = byte(v >> 16)
	p[2] = byte(v >> 8)
	p[3] = byte(v)
}

func getULongBE(p []byte) uint32 {
	return uint32(p[0])<<24 | uint32(p[1])<<16 | uint32(p[2])<<8 | uint32(p[3])
}
