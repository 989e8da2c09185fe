package netsim

import (
	"io"
	"math/rand"
	"net"
	"os"
	"sync"
	"time"
)

// lockedRand is a mutex-guarded rand.Rand (stdlib rand.Rand is not safe
// for concurrent use).
type lockedRand struct {
	mu  sync.Mutex
	rng *rand.Rand
}

func newLockedRand(seed int64) *lockedRand {
	return &lockedRand{rng: rand.New(rand.NewSource(seed))}
}

func (r *lockedRand) int63n(n int64) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Int63n(n)
}

func (r *lockedRand) float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.rng.Float64()
}

// segment is a chunk of bytes in flight with its arrival time.
type segment struct {
	data    []byte
	arrival time.Time
}

// conn is one endpoint of a simulated connection.
type conn struct {
	network    *Network
	local      string // host name of this endpoint
	remote     string // host name of the peer
	localAddr  net.Addr
	remoteAddr net.Addr
	link       Link // shaping for the outgoing direction
	peer       *conn

	in chan segment // segments arriving at this endpoint

	mu       sync.Mutex
	nextFree time.Time // when the outgoing link finishes its current send
	severed  bool

	cur   []byte    // partially consumed segment
	curAt time.Time // its arrival time (may still be in the future)

	readDeadline deadline

	closeOnce sync.Once
	closed    chan struct{}
}

var _ net.Conn = (*conn)(nil)

func newConn(n *Network, local, remote string, laddr, raddr net.Addr, link Link) *conn {
	return &conn{
		network:    n,
		local:      local,
		remote:     remote,
		localAddr:  laddr,
		remoteAddr: raddr,
		link:       link,
		in:         make(chan segment, 256),
		closed:     make(chan struct{}),
	}
}

// Write shapes the outgoing bytes: the caller is blocked for the
// transmission time (serialisation on the link) and the segment arrives at
// the peer after the propagation delay.
func (c *conn) Write(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, nil
	}
	select {
	case <-c.closed:
		return 0, c.closeError("write")
	default:
	}

	now := time.Now()
	tx := c.network.scaled(c.link.transmitTime(len(p)))
	c.mu.Lock()
	if c.severed {
		c.mu.Unlock()
		return 0, errSevered
	}
	start := c.nextFree
	if start.Before(now) {
		start = now
	}
	departure := start.Add(tx)
	c.nextFree = departure
	c.mu.Unlock()

	if wait := departure.Sub(now); wait > 0 {
		timer := time.NewTimer(wait)
		select {
		case <-timer.C:
		case <-c.closed:
			timer.Stop()
			return 0, c.closeError("write")
		}
	}

	delay := c.network.scaled(c.link.Latency)
	if c.link.Jitter > 0 {
		delay += c.network.scaled(time.Duration(c.network.rng.int63n(int64(c.link.Jitter))))
	}
	data := append([]byte(nil), p...)
	if f := c.network.faults.Load(); f != nil {
		switch v := f.onWrite(c.local, c.remote, data); {
		case v.sever:
			c.sever()
			return 0, errSevered
		case v.drop:
			// Blackholed: the writer believes the bytes went out.
			return len(p), nil
		default:
			delay += c.network.scaled(v.extraDelay)
		}
	}
	seg := segment{data: data, arrival: departure.Add(delay)}
	select {
	case c.peer.in <- seg:
		return len(p), nil
	case <-c.closed:
		return 0, c.closeError("write")
	case <-c.peer.closed:
		return 0, c.peer.closeError("write")
	}
}

// Read returns buffered bytes, waiting for arrival times and honouring the
// read deadline.
func (c *conn) Read(p []byte) (int, error) {
	for {
		if len(c.cur) > 0 {
			// Wait until the segment has "arrived".
			if wait := time.Until(c.curAt); wait > 0 {
				if !c.sleepOrDeadline(wait) {
					return 0, os.ErrDeadlineExceeded
				}
			}
			n := copy(p, c.cur)
			c.cur = c.cur[n:]
			return n, nil
		}
		// Fast path: drain anything already queued.
		select {
		case seg := <-c.in:
			c.cur, c.curAt = seg.data, seg.arrival
			continue
		default:
		}
		timeout := c.readDeadline.channel()
		select {
		case seg := <-c.in:
			c.cur, c.curAt = seg.data, seg.arrival
		case <-timeout:
			return 0, os.ErrDeadlineExceeded
		case <-c.closed:
			// Drain segments that raced with close.
			select {
			case seg := <-c.in:
				c.cur, c.curAt = seg.data, seg.arrival
				continue
			default:
			}
			return 0, c.closeError("read")
		}
	}
}

// sleepOrDeadline sleeps for d unless the read deadline fires first; it
// reports false on deadline.
func (c *conn) sleepOrDeadline(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-c.readDeadline.channel():
		return false
	}
}

// closeError distinguishes a peer shutdown (EOF on read, ErrClosed on
// write) from a simulated partition (errSevered on both).
func (c *conn) closeError(op string) error {
	c.mu.Lock()
	severed := c.severed
	c.mu.Unlock()
	if severed {
		return errSevered
	}
	if op == "read" {
		return io.EOF
	}
	return net.ErrClosed
}

// Close shuts down both directions of this endpoint.
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		close(c.closed)
		c.network.forget(c)
		// Closing one end closes the other, as with TCP FIN exchange
		// once both sides observe it. The peer sees EOF after draining.
		if c.peer != nil {
			c.peer.closeOnce.Do(func() {
				close(c.peer.closed)
				c.network.forget(c.peer)
			})
		}
	})
	return nil
}

// sever cuts the connection as a partition or crash would: both ends
// observe errSevered rather than a clean EOF.
func (c *conn) sever() {
	c.mu.Lock()
	c.severed = true
	c.mu.Unlock()
	if c.peer != nil {
		c.peer.mu.Lock()
		c.peer.severed = true
		c.peer.mu.Unlock()
	}
	c.Close()
}

func (c *conn) LocalAddr() net.Addr  { return c.localAddr }
func (c *conn) RemoteAddr() net.Addr { return c.remoteAddr }

// SetDeadline implements net.Conn; only the read deadline is enforced
// (writes complete quickly once the link frees up).
func (c *conn) SetDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *conn) SetReadDeadline(t time.Time) error {
	c.readDeadline.set(t)
	return nil
}

// SetWriteDeadline implements net.Conn as a no-op.
func (c *conn) SetWriteDeadline(time.Time) error { return nil }

// deadline turns a time into a channel that closes when the deadline
// passes, resettable like net.Conn deadlines.
type deadline struct {
	mu    sync.Mutex
	timer *time.Timer
	ch    chan struct{}
}

func (d *deadline) set(t time.Time) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.timer != nil {
		d.timer.Stop()
		d.timer = nil
	}
	if t.IsZero() {
		d.ch = nil
		return
	}
	ch := make(chan struct{})
	d.ch = ch
	if wait := time.Until(t); wait <= 0 {
		close(ch)
	} else {
		d.timer = time.AfterFunc(wait, func() { close(ch) })
	}
}

// channel returns the current deadline channel (nil blocks forever).
func (d *deadline) channel() <-chan struct{} {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ch
}
