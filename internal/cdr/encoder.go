package cdr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// ByteOrder identifies the byte order of a CDR encapsulation.
type ByteOrder byte

// Byte orders. CDR marks little-endian encapsulations with flag octet 1.
const (
	BigEndian    ByteOrder = 0
	LittleEndian ByteOrder = 1
)

func (bo ByteOrder) order() binary.ByteOrder {
	if bo == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

func (bo ByteOrder) appender() binary.AppendByteOrder {
	if bo == LittleEndian {
		return binary.LittleEndian
	}
	return binary.BigEndian
}

// String returns the conventional name of the byte order.
func (bo ByteOrder) String() string {
	if bo == LittleEndian {
		return "little-endian"
	}
	return "big-endian"
}

// maxStringLen bounds marshalled string and sequence lengths so that a
// corrupted length prefix cannot drive allocation to gigabytes.
const maxStringLen = 1 << 26 // 64 MiB

// Encoder marshals values into a CDR buffer. The zero value is not usable;
// construct one with NewEncoder.
type Encoder struct {
	buf   []byte
	order ByteOrder
	// base is the offset within buf where alignment is measured from.
	// Encapsulations restart alignment at their own beginning.
	base int
}

// NewEncoder returns an Encoder producing the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// Order reports the byte order of the encoder.
func (e *Encoder) Order() ByteOrder { return e.order }

// Bytes returns the encoded buffer. The buffer is owned by the encoder and
// must not be modified while the encoder is still in use.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// align pads the buffer with zero octets so the next write lands on a
// multiple of n, measured from the encapsulation base.
func (e *Encoder) align(n int) {
	rel := len(e.buf) - e.base
	if pad := (n - rel%n) % n; pad > 0 {
		e.buf = append(e.buf, make([]byte, pad)...)
	}
}

// WriteOctet appends a single octet.
func (e *Encoder) WriteOctet(v byte) { e.buf = append(e.buf, v) }

// WriteBool appends a boolean encoded as one octet (0 or 1).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUShort appends an unsigned 16-bit integer at 2-byte alignment.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	e.buf = e.order.appender().AppendUint16(e.buf, v)
}

// WriteShort appends a signed 16-bit integer at 2-byte alignment.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends an unsigned 32-bit integer at 4-byte alignment.
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	e.buf = e.order.appender().AppendUint32(e.buf, v)
}

// WriteLong appends a signed 32-bit integer at 4-byte alignment.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong appends an unsigned 64-bit integer at 8-byte alignment.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	e.buf = e.order.appender().AppendUint64(e.buf, v)
}

// WriteLongLong appends a signed 64-bit integer at 8-byte alignment.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends a 32-bit IEEE float at 4-byte alignment.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a 64-bit IEEE float at 8-byte alignment.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: ULong length (including the
// terminating NUL), the bytes, and a NUL octet.
func (e *Encoder) WriteString(v string) {
	e.WriteULong(uint32(len(v) + 1))
	e.buf = append(e.buf, v...)
	e.buf = append(e.buf, 0)
}

// WriteOctets appends a CDR octet sequence: ULong length then raw bytes.
func (e *Encoder) WriteOctets(v []byte) {
	e.WriteULong(uint32(len(v)))
	e.buf = append(e.buf, v...)
}

// BeginEncapsulation starts a nested encapsulation: a placeholder ULong
// length is written, followed by the byte-order flag octet, and alignment
// restarts at the flag octet. EndEncapsulation patches the length.
// Encapsulations may nest.
func (e *Encoder) BeginEncapsulation() (restore func()) {
	e.align(4)
	lenPos := len(e.buf)
	e.buf = append(e.buf, 0, 0, 0, 0) // placeholder length
	savedBase := e.base
	e.base = len(e.buf)
	e.WriteOctet(byte(e.order))
	return func() {
		n := len(e.buf) - e.base
		e.order.order().PutUint32(e.buf[lenPos:], uint32(n))
		e.base = savedBase
	}
}

// Decoder unmarshals values from a CDR buffer. Construct with NewDecoder.
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
	base  int
}

// NewDecoder returns a Decoder over buf using the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// Reset points d at the start of buf, for a Decoder embedded in the value
// that owns buf instead of allocated beside it.
func (d *Decoder) Reset(buf []byte, order ByteOrder) {
	*d = Decoder{buf: buf, order: order}
}

// Order reports the byte order of the decoder.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos returns the current read offset within the buffer.
func (d *Decoder) Pos() int { return d.pos }

// errTruncated constructs a decode error for a short buffer.
func errTruncated(what string) error {
	return fmt.Errorf("cdr: truncated buffer reading %s", what)
}

func (d *Decoder) align(n int) {
	rel := d.pos - d.base
	if pad := (n - rel%n) % n; pad > 0 {
		d.pos += pad
	}
}

func (d *Decoder) need(n int, what string) error {
	if d.pos+n > len(d.buf) {
		return errTruncated(what)
	}
	return nil
}

// ReadOctet consumes a single octet.
func (d *Decoder) ReadOctet() (byte, error) {
	if err := d.need(1, "octet"); err != nil {
		return 0, err
	}
	v := d.buf[d.pos]
	d.pos++
	return v, nil
}

// ReadBool consumes a boolean octet.
func (d *Decoder) ReadBool() (bool, error) {
	v, err := d.ReadOctet()
	if err != nil {
		return false, fmt.Errorf("cdr: reading bool: %w", err)
	}
	return v != 0, nil
}

// ReadUShort consumes an unsigned 16-bit integer.
func (d *Decoder) ReadUShort() (uint16, error) {
	d.align(2)
	if err := d.need(2, "ushort"); err != nil {
		return 0, err
	}
	v := d.order.order().Uint16(d.buf[d.pos:])
	d.pos += 2
	return v, nil
}

// ReadShort consumes a signed 16-bit integer.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong consumes an unsigned 32-bit integer.
func (d *Decoder) ReadULong() (uint32, error) {
	d.align(4)
	if err := d.need(4, "ulong"); err != nil {
		return 0, err
	}
	v := d.order.order().Uint32(d.buf[d.pos:])
	d.pos += 4
	return v, nil
}

// ReadLong consumes a signed 32-bit integer.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong consumes an unsigned 64-bit integer.
func (d *Decoder) ReadULongLong() (uint64, error) {
	d.align(8)
	if err := d.need(8, "ulonglong"); err != nil {
		return 0, err
	}
	v := d.order.order().Uint64(d.buf[d.pos:])
	d.pos += 8
	return v, nil
}

// ReadLongLong consumes a signed 64-bit integer.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat consumes a 32-bit IEEE float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble consumes a 64-bit IEEE float.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString consumes a CDR string.
func (d *Decoder) ReadString() (string, error) {
	b, err := d.readStringBytes()
	return string(b), err
}

// ReadStringReuse consumes a CDR string like ReadString, but returns prev
// itself when that is what the buffer holds: a decoder that sees the same
// name request after request (an operation name, say) allocates it once.
func (d *Decoder) ReadStringReuse(prev string) (string, error) {
	b, err := d.readStringBytes()
	if err == nil && string(b) == prev {
		return prev, nil
	}
	return string(b), err
}

// readStringBytes consumes a CDR string and returns its characters, which
// alias the decoder's buffer.
func (d *Decoder) readStringBytes() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("cdr: reading string length: %w", err)
	}
	if n == 0 {
		// Tolerate a zero length (no NUL) from lenient encoders.
		return nil, nil
	}
	if n > maxStringLen {
		return nil, fmt.Errorf("cdr: string length %d exceeds limit", n)
	}
	if err := d.need(int(n), "string body"); err != nil {
		return nil, err
	}
	v := d.buf[d.pos : d.pos+int(n)-1]
	d.pos += int(n)
	return v, nil
}

// ReadOctets consumes a CDR octet sequence. The returned slice aliases the
// decoder's buffer and must be copied if retained.
func (d *Decoder) ReadOctets() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("cdr: reading octet sequence length: %w", err)
	}
	if n > maxStringLen {
		return nil, fmt.Errorf("cdr: octet sequence length %d exceeds limit", n)
	}
	if err := d.need(int(n), "octet sequence body"); err != nil {
		return nil, err
	}
	v := d.buf[d.pos : d.pos+int(n) : d.pos+int(n)]
	d.pos += int(n)
	return v, nil
}

// BeginEncapsulation consumes a nested encapsulation header (ULong length
// plus byte-order flag) and returns a Decoder scoped to the encapsulated
// bytes. The outer decoder is advanced past the encapsulation.
func (d *Decoder) BeginEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("cdr: reading encapsulation: %w", err)
	}
	if len(body) < 1 {
		return nil, errTruncated("encapsulation flag")
	}
	inner := NewDecoder(body, ByteOrder(body[0]&1))
	inner.pos = 1
	inner.base = 0
	return inner, nil
}
