package encryption

import (
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/ecdh"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos/transport"
)

// sessionKeys is one binding's session: the derived key and the AEAD
// prepared from it once, at handshake, instead of once per payload.
// Sessions are shared by pointer: GCM's Seal and Open keep no per-call
// state and the frame counter is atomic, so concurrent callers share one
// session without a lock; only wipe mutates one.
type sessionKeys struct {
	id   []byte        // binding ID, the additional data of every frame
	aead cipher.AEAD   // AES-256-GCM under key
	sent atomic.Uint64 // frames sealed so far: the nonce counter
	key  [32]byte      // AES-256 key
}

// Frame layout: nonce || ciphertext || tag. The nonce is the direction
// octet, three zero octets and the sealing session's frame counter
// (big-endian), so no two frames under one key share a nonce: both sides
// hold the key, the direction keeps their counters apart, and every
// handshake derives a fresh key.
const (
	nonceSize = 12
	tagSize   = 16
	overhead  = nonceSize + tagSize
)

// Frame directions, the first nonce octet. A side opens only frames of
// the other direction, so a frame reflected back to its sender fails.
const (
	toServer byte = 0 // requests, sealed by the client module
	toClient byte = 1 // replies, sealed by the server filter
)

// errIntegrity is every rejected frame of the right length: wrong
// direction, key, binding or any changed bit.
var errIntegrity = errors.New("encryption: integrity check failed")

// deriveKeys computes the session from the X25519 shared secret and the
// binding ID (domain-separated SHA-256; both sides compute the same).
func deriveKeys(shared []byte, bindingID string) *sessionKeys {
	k := &sessionKeys{id: []byte(bindingID)}
	k.key = sha256.Sum256(append(append([]byte("maqs-enc|"), shared...), bindingID...))
	block, err := aes.NewCipher(k.key[:])
	if err == nil {
		k.aead, err = cipher.NewGCM(block)
	}
	if err != nil {
		panic(fmt.Sprintf("encryption: AES-256-GCM rejects a %d-byte key: %v", len(k.key), err))
	}
	return k
}

// wipe zeroes the key material. The prepared AEAD keeps serving calls
// already in flight and becomes garbage with the session; the standard
// library offers no way to scrub it.
func (k *sessionKeys) wipe() { k.key = [32]byte{} }

// Stats counts the module's activity.
type Stats struct {
	// Handshakes counts completed key exchanges.
	Handshakes uint64
	// Sealed and Opened count protected payloads in each direction.
	Sealed, Opened uint64
	// AuthFailures counts integrity check rejections.
	AuthFailures uint64
}

// Module is the "secure" transport module.
type Module struct {
	mu   sync.RWMutex
	keys map[string]*sessionKeys // by binding ID

	// handshaking serialises client handshakes, so that concurrent first
	// calls on one binding agree on one session instead of each
	// replacing the server's.
	handshaking sync.Mutex

	handshakes, sealed, opened, authFailures atomic.Uint64

	// transport gives the client side access to the ORB for the
	// handshake command.
	transport *transport.Transport
}

var (
	_ transport.Module          = (*Module)(nil)
	_ transport.BindingReleaser = (*Module)(nil)
)

// NewModule constructs the module; it takes no configuration. It is the
// transport factory for ModuleName.
func NewModule(t *transport.Transport, _ map[string]string) (transport.Module, error) {
	return &Module{keys: make(map[string]*sessionKeys), transport: t}, nil
}

// Name implements transport.Module.
func (m *Module) Name() string { return ModuleName }

// Close implements transport.Module, wiping key material.
func (m *Module) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id, k := range m.keys {
		k.wipe()
		delete(m.keys, id)
	}
	return nil
}

// ReleaseBinding implements transport.BindingReleaser: the session of a
// released binding is wiped and forgotten.
func (m *Module) ReleaseBinding(bindingID string) { m.drop(bindingID) }

// drop wipes and forgets one session, reporting whether it existed.
func (m *Module) drop(bindingID string) bool {
	m.mu.Lock()
	k, ok := m.keys[bindingID]
	delete(m.keys, bindingID)
	m.mu.Unlock()
	if ok {
		k.wipe()
	}
	return ok
}

// Stats snapshots the module counters.
func (m *Module) Stats() Stats {
	return Stats{
		Handshakes:   m.handshakes.Load(),
		Sealed:       m.sealed.Load(),
		Opened:       m.opened.Load(),
		AuthFailures: m.authFailures.Load(),
	}
}

func (m *Module) lookup(bindingID string) (*sessionKeys, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	k, ok := m.keys[bindingID]
	return k, ok
}

// store installs a freshly derived session, wiping the one it replaces
// (a re-handshake after drop_session raced with traffic).
func (m *Module) store(bindingID string, k *sessionKeys) {
	m.mu.Lock()
	old := m.keys[bindingID]
	m.keys[bindingID] = k
	m.mu.Unlock()
	if old != nil {
		old.wipe()
	}
	m.handshakes.Add(1)
}

// seal protects a payload travelling in direction dir: one buffer, the
// nonce written at its head and the ciphertext and tag appended behind it.
func (m *Module) seal(k *sessionKeys, dir byte, p []byte) []byte {
	out := make([]byte, nonceSize, overhead+len(p))
	out[0] = dir
	binary.BigEndian.PutUint64(out[4:], k.sent.Add(1))
	out = k.aead.Seal(out, out, p, k.id)
	m.sealed.Add(1)
	return out
}

// open reverses seal for a frame that must have travelled in direction
// dir, into a fresh buffer: p is the caller's and stays untouched.
func (m *Module) open(k *sessionKeys, dir byte, p []byte) ([]byte, error) {
	if len(p) < overhead {
		return nil, fmt.Errorf("encryption: frame too short (%d bytes)", len(p))
	}
	if p[0] == dir {
		if out, err := k.aead.Open(make([]byte, 0, len(p)-overhead), p[:nonceSize], p[nonceSize:], k.id); err == nil {
			m.opened.Add(1)
			return out, nil
		}
	}
	m.authFailures.Add(1)
	return nil, errIntegrity
}

// session returns the binding's client-side session, performing the
// X25519 exchange through the server module's dynamic interface on the
// binding's first request.
func (m *Module) session(ctx context.Context, inv *orb.Invocation, bindingID string) (*sessionKeys, error) {
	if k, ok := m.lookup(bindingID); ok {
		return k, nil
	}
	m.handshaking.Lock()
	defer m.handshaking.Unlock()
	if k, ok := m.lookup(bindingID); ok {
		return k, nil
	}
	priv, err := ecdh.X25519().GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("encryption: generating key: %w", err)
	}
	ctl := transport.NewController(m.transport.ORB(), inv.Target)
	e := cdr.NewEncoder(m.transport.ORB().Order())
	e.WriteString(bindingID)
	e.WriteOctets(priv.PublicKey().Bytes())
	d, err := ctl.ModuleCommand(ctx, ModuleName, "handshake", e.Bytes())
	if err != nil {
		return nil, fmt.Errorf("encryption: handshake: %w", err)
	}
	peerPubBytes, err := d.ReadOctets()
	if err != nil {
		return nil, fmt.Errorf("encryption: reading peer key: %w", err)
	}
	peerPub, err := ecdh.X25519().NewPublicKey(peerPubBytes)
	if err != nil {
		return nil, fmt.Errorf("encryption: bad peer key: %w", err)
	}
	shared, err := priv.ECDH(peerPub)
	if err != nil {
		return nil, fmt.Errorf("encryption: deriving shared secret: %w", err)
	}
	keys := deriveKeys(shared, bindingID)
	m.store(bindingID, keys)
	return keys, nil
}

// Send implements transport.Module: establish keys if needed, seal the
// request, open the reply.
func (m *Module) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	tag, tagged, err := inv.QoSTag()
	if err != nil || !tagged {
		return nil, fmt.Errorf("encryption: request without QoS tag: %v", err)
	}
	keys, err := m.session(ctx, inv, tag.BindingID)
	if err != nil {
		return nil, err
	}
	wrapped := *inv // only Args change; the context list is shared
	wrapped.Args = m.seal(keys, toServer, inv.Args)
	out, err := next(ctx, &wrapped)
	if err != nil {
		return nil, err
	}
	if out.Status != giop.ReplyNoException {
		return out, nil
	}
	if out.Data, err = m.open(keys, toClient, out.Data); err != nil {
		return nil, err
	}
	return out, nil
}

// ServerFilter implements transport.Module.
func (m *Module) ServerFilter() orb.IncomingFilter { return (*serverFilter)(m) }

type serverFilter Module

func (f *serverFilter) Inbound(req *orb.ServerRequest) error {
	m := (*Module)(f)
	tag, tagged, err := req.QoSTag()
	if err != nil || !tagged {
		return fmt.Errorf("encryption: request without QoS tag: %v", err)
	}
	keys, ok := m.lookup(tag.BindingID)
	if !ok {
		return orb.NewSystemException(orb.ExcBadQoS, 70,
			"no session keys for binding %q (handshake missing)", tag.BindingID)
	}
	args, err := m.open(keys, toServer, req.Args)
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
	m := (*Module)(f)
	tag, tagged, err := req.QoSTag()
	if err != nil || !tagged {
		return nil, fmt.Errorf("encryption: reply without QoS tag: %v", err)
	}
	keys, ok := m.lookup(tag.BindingID)
	if !ok {
		return nil, fmt.Errorf("encryption: no session keys for binding %q", tag.BindingID)
	}
	return m.seal(keys, toClient, body), nil
}

// Dynamic implements transport.Module: the handshake endpoint and a
// rekey operation ("on the fly change of encryption keys").
func (m *Module) Dynamic() *orb.DynamicServant {
	octets := cdr.SequenceOf(cdr.TCOctet)
	return &orb.DynamicServant{Ops: map[string]orb.DynamicOp{
		"handshake": {
			Params: []*cdr.TypeCode{cdr.TCString, octets},
			Result: octets,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				bindingID := args[0].Value.(string)
				peerPubBytes := args[1].Value.([]byte)
				peerPub, err := ecdh.X25519().NewPublicKey(peerPubBytes)
				if err != nil {
					return cdr.Any{}, orb.NewSystemException(orb.ExcBadParam, 71, "bad client key: %v", err)
				}
				priv, err := ecdh.X25519().GenerateKey(rand.Reader)
				if err != nil {
					return cdr.Any{}, fmt.Errorf("encryption: generating key: %w", err)
				}
				shared, err := priv.ECDH(peerPub)
				if err != nil {
					return cdr.Any{}, orb.NewSystemException(orb.ExcBadParam, 72, "deriving shared secret: %v", err)
				}
				m.store(bindingID, deriveKeys(shared, bindingID))
				return cdr.Octets(priv.PublicKey().Bytes()), nil
			},
		},
		"drop_session": {
			Params: []*cdr.TypeCode{cdr.TCString},
			Result: cdr.TCBoolean,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				return cdr.Bool(m.drop(args[0].Value.(string))), nil
			},
		},
	}}
}
