package qos

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"

	"maqs/internal/orb"
)

// Binding is one live QoS agreement between a client and a server object:
// the paper's "assignment of a QoS characteristic to the client/server
// relationship". Its ID tags every request of the relationship.
type Binding struct {
	// ID is the opaque binding identifier minted by the server.
	ID string
	// Characteristic names the bound QoS characteristic.
	Characteristic string
	// Contract holds the negotiated parameter values.
	Contract *Contract
	// Module optionally names the transport-layer QoS module assigned to
	// this binding (paper §4); empty means the plain GIOP/IIOP module.
	Module string

	// tag is the binding's SCQoS tag with its encoding and the context list
	// of a request carrying nothing else, built once when the client
	// negotiates the binding (NegotiateRaw) and attached to every request
	// of the binding.
	tag *orb.EncodedQoSTag
}

// newBindingID mints a random binding identifier.
func newBindingID() string {
	var b [12]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is unrecoverable; fall back to a counter
		// would hide real entropy problems, so panic loudly.
		panic(fmt.Sprintf("qos: reading random bytes: %v", err))
	}
	var id [2 * len(b)]byte
	hex.Encode(id[:], b[:])
	return string(id[:])
}

// QoSTag is the payload of the SCQoS service context: it marks a request
// as QoS-aware and names its binding. The type belongs to orb, whose
// router and server dispatch read it; requests and invocations hand out the
// decoded tag through their QoSTag methods (one decode per request).
type QoSTag = orb.QoSTag
