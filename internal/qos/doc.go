// Package qos is the core of MAQS, the paper's generic multi-category QoS
// management framework. It implements the application-layer half of the
// architecture: QoS characteristics as aspects woven around client stubs
// and server skeletons, and the negotiation machinery that binds a QoS
// contract to a client/server relationship.
//
// # Concepts
//
//   - Characteristic: a named QoS capability (e.g. "Availability",
//     "Compression") declared in QIDL with parameters and the operations
//     of its QoS responsibility.
//   - Mediator: the client-side aspect. The stub delegates every call to
//     the mediator of the bound characteristic, which can rewrite, wrap
//     or entirely take over delivery (paper §3.3, client side).
//   - Impl (QoS implementation): the server-side aspect. The server
//     skeleton holds a delegate to the negotiated characteristic's Impl
//     and calls its Prolog before and Epilog after each operation; QoS
//     operations of non-negotiated characteristics raise BAD_QOS (paper
//     §3.3, server side, Fig. 2).
//   - Contract: the negotiated values of a characteristic's parameters.
//     Contracts are established per client/server relationship — there is
//     no system-wide QoS view (paper §3, "QoS adaptation").
//   - Binding: a live contract instance identified by a binding ID that
//     tags every request of the relationship.
//
// Negotiation, renegotiation (adaptation) and release travel as ordinary
// requests on reserved operations (opNegotiate and friends), so they work
// over the plain IIOP path before any QoS module is assigned — exactly
// the bootstrap the paper describes for its QoS transport.
package qos
