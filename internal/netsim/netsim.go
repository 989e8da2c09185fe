package netsim

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Transport abstracts the byte transport underneath the ORB.
type Transport interface {
	// Dial opens a connection to addr ("host:port").
	Dial(addr string) (net.Conn, error)
	// Listen binds a listener at addr ("host:port").
	Listen(addr string) (net.Listener, error)
}

// TCP is the production Transport: plain TCP via the net package.
type TCP struct {
	// DialTimeout bounds connection establishment; zero means no bound.
	DialTimeout time.Duration
}

var _ Transport = (*TCP)(nil)

// Dial opens a TCP connection.
func (t *TCP) Dial(addr string) (net.Conn, error) {
	d := net.Dialer{Timeout: t.DialTimeout}
	conn, err := d.Dial("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: tcp dial %s: %w", addr, err)
	}
	return conn, nil
}

// Listen binds a TCP listener.
func (t *TCP) Listen(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: tcp listen %s: %w", addr, err)
	}
	return l, nil
}

// Errors reported by the simulated network.
var (
	// errSevered is returned from reads and writes on a connection cut by
	// a partition or host crash.
	errSevered = errors.New("netsim: connection severed")
	// errRefused is returned by Dial when no listener is bound or the
	// destination is partitioned away or crashed.
	errRefused = errors.New("netsim: connection refused")
)

// Link describes the characteristics of a directed link between two hosts.
type Link struct {
	// Latency is the one-way propagation delay.
	Latency time.Duration
	// Jitter adds a uniformly distributed extra delay in [0, Jitter).
	Jitter time.Duration
	// BitsPerSec is the link bandwidth; zero means unconstrained.
	BitsPerSec int64
}

// transmitTime returns how long the link is busy sending n bytes.
func (l Link) transmitTime(n int) time.Duration {
	if l.BitsPerSec <= 0 || n == 0 {
		return 0
	}
	bits := float64(n) * 8
	return time.Duration(bits / float64(l.BitsPerSec) * float64(time.Second))
}

// Network is a simulated network of named hosts. The zero value is not
// usable; construct with NewNetwork.
type Network struct {
	mu        sync.Mutex
	listeners map[string]*listener // by "host:port"
	links     map[hostPair]Link
	defLink   Link
	parted    map[hostPair]bool
	crashed   map[string]bool
	conns     map[*conn]struct{}
	timeScale float64
	rng       *lockedRand

	// faults is consulted locklessly on every write and dial; nil means
	// no fault injection (see InstallFaults).
	faults atomic.Pointer[FaultInjector]
}

type hostPair struct{ src, dst string }

// NewNetwork constructs an empty simulated network with no default
// shaping (infinite bandwidth, zero latency).
func NewNetwork() *Network {
	return &Network{
		listeners: make(map[string]*listener),
		links:     make(map[hostPair]Link),
		parted:    make(map[hostPair]bool),
		crashed:   make(map[string]bool),
		conns:     make(map[*conn]struct{}),
		timeScale: 1.0,
		rng:       newLockedRand(1),
	}
}

// SetTimeScale compresses (scale < 1) or stretches (scale > 1) all
// simulated delays. Measurements taken against a compressed network can be
// divided by the scale to recover virtual durations.
func (n *Network) SetTimeScale(scale float64) {
	if scale <= 0 {
		scale = 1
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.timeScale = scale
}

// Seed reseeds the jitter random source, making runs reproducible.
func (n *Network) Seed(seed int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.rng = newLockedRand(seed)
}

// SetDefaultLink configures the shaping applied to host pairs without a
// specific link.
func (n *Network) SetDefaultLink(l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.defLink = l
}

// SetLink configures shaping for traffic in both directions between hosts
// a and b.
func (n *Network) SetLink(a, b string, l Link) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.links[hostPair{a, b}] = l
	n.links[hostPair{b, a}] = l
}

func (n *Network) linkFor(src, dst string) Link {
	if l, ok := n.links[hostPair{src, dst}]; ok {
		return l
	}
	return n.defLink
}

// Partition cuts connectivity between hosts a and b: existing connections
// are severed and new dials fail until Heal is called.
func (n *Network) Partition(a, b string) {
	n.mu.Lock()
	n.parted[hostPair{a, b}] = true
	n.parted[hostPair{b, a}] = true
	var toSever []*conn
	for c := range n.conns {
		if (c.local == a && c.remote == b) || (c.local == b && c.remote == a) {
			toSever = append(toSever, c)
		}
	}
	n.mu.Unlock()
	for _, c := range toSever {
		c.sever()
	}
}

// Heal restores connectivity between hosts a and b.
func (n *Network) Heal(a, b string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.parted, hostPair{a, b})
	delete(n.parted, hostPair{b, a})
}

// Crash takes a host down: all its listeners are closed, its connections
// severed, and dials to it fail until Restart.
func (n *Network) Crash(host string) {
	n.mu.Lock()
	n.crashed[host] = true
	var toSever []*conn
	for c := range n.conns {
		if c.local == host || c.remote == host {
			toSever = append(toSever, c)
		}
	}
	var toClose []*listener
	for addr, l := range n.listeners {
		if hostOf(addr) == host {
			toClose = append(toClose, l)
			delete(n.listeners, addr)
		}
	}
	n.mu.Unlock()
	for _, c := range toSever {
		c.sever()
	}
	for _, l := range toClose {
		l.closeLocked()
	}
}

// Restart brings a crashed host back (listeners must be re-bound by the
// application, as after a real reboot).
func (n *Network) Restart(host string) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.crashed, host)
}

func hostOf(addr string) string {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return addr
	}
	return host
}

// Listen binds a simulated listener at addr ("host:port").
func (n *Network) Listen(addr string) (net.Listener, error) {
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("netsim: listen %s: %w", addr, err)
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.crashed[host] {
		return nil, fmt.Errorf("netsim: listen %s: host crashed", addr)
	}
	if _, busy := n.listeners[addr]; busy {
		return nil, fmt.Errorf("netsim: listen %s: address in use", addr)
	}
	l := &listener{
		network: n,
		addr:    simAddr(addr),
		backlog: make(chan *conn, 64),
		done:    make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial opens a connection from the implicit host "client" to addr.
func (n *Network) Dial(addr string) (net.Conn, error) {
	return n.DialFrom("client", addr)
}

var _ Transport = (*Network)(nil)

// Host returns a Transport whose dials originate from the named host and
// whose listens are validated against that host, letting one process play
// several simulated machines.
func (n *Network) Host(name string) Transport {
	return &hostTransport{network: n, host: name}
}

type hostTransport struct {
	network *Network
	host    string
}

func (h *hostTransport) Dial(addr string) (net.Conn, error) {
	return h.network.DialFrom(h.host, addr)
}

func (h *hostTransport) Listen(addr string) (net.Listener, error) {
	if hostOf(addr) != h.host {
		return nil, fmt.Errorf("netsim: host %s cannot listen on %s", h.host, addr)
	}
	return h.network.Listen(addr)
}

// DialFrom opens a connection from the named source host to addr.
func (n *Network) DialFrom(src, addr string) (net.Conn, error) {
	dst := hostOf(addr)
	if f := n.faults.Load(); f != nil && f.refusesDial(src, dst) {
		return nil, fmt.Errorf("netsim: dial %s from %s: fault partition: %w", addr, src, errRefused)
	}
	n.mu.Lock()
	if n.crashed[src] {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial from crashed host %s: %w", src, errRefused)
	}
	if n.crashed[dst] || n.parted[hostPair{src, dst}] {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s from %s: %w", addr, src, errRefused)
	}
	l, ok := n.listeners[addr]
	if !ok {
		n.mu.Unlock()
		return nil, fmt.Errorf("netsim: dial %s: no listener: %w", addr, errRefused)
	}
	clientEnd := newConn(n, src, dst, simAddr(src+":0"), simAddr(addr), n.linkFor(src, dst))
	serverEnd := newConn(n, dst, src, simAddr(addr), simAddr(src+":0"), n.linkFor(dst, src))
	clientEnd.peer = serverEnd
	serverEnd.peer = clientEnd
	n.conns[clientEnd] = struct{}{}
	n.conns[serverEnd] = struct{}{}
	n.mu.Unlock()

	select {
	case l.backlog <- serverEnd:
		return clientEnd, nil
	case <-l.done:
		clientEnd.sever()
		return nil, fmt.Errorf("netsim: dial %s: listener closed: %w", addr, errRefused)
	default:
		clientEnd.sever()
		return nil, fmt.Errorf("netsim: dial %s: backlog full: %w", addr, errRefused)
	}
}

func (n *Network) forget(c *conn) {
	n.mu.Lock()
	defer n.mu.Unlock()
	delete(n.conns, c)
}

func (n *Network) scaled(d time.Duration) time.Duration {
	n.mu.Lock()
	s := n.timeScale
	n.mu.Unlock()
	if s == 1.0 || d == 0 {
		return d
	}
	return time.Duration(float64(d) * s)
}

// listener implements net.Listener over the simulated network.
type listener struct {
	network *Network
	addr    simAddr
	backlog chan *conn
	done    chan struct{}
	once    sync.Once
}

var _ net.Listener = (*listener)(nil)

func (l *listener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.done:
		return nil, fmt.Errorf("netsim: accept on %s: %w", l.addr, net.ErrClosed)
	}
}

func (l *listener) Close() error {
	l.network.mu.Lock()
	if cur, ok := l.network.listeners[string(l.addr)]; ok && cur == l {
		delete(l.network.listeners, string(l.addr))
	}
	l.network.mu.Unlock()
	l.closeLocked()
	return nil
}

// closeLocked closes the accept channel without touching the network maps
// (used by Crash, which already holds cleanup responsibility).
func (l *listener) closeLocked() {
	l.once.Do(func() { close(l.done) })
}

func (l *listener) Addr() net.Addr { return l.addr }

// simAddr is the net.Addr of simulated endpoints.
type simAddr string

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return string(a) }
