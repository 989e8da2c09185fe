package main

import (
	"encoding/binary"
	"math/rand"
	"strings"

	"maqs/internal/cdr"
)

// vocabulary is the fixed word list payload text is sampled from, so the
// compressibility of a payload is the same in distribution for any seed.
var vocabulary = strings.Fields(`
quality of service object oriented middleware multiple concerns and their
separation client server stub skeleton mediator prolog epilog request reply
transport module binding contract negotiation characteristic parameter offer
proposal replication availability load balancing compression encryption
actuality bandwidth latency throughput deadline priority resource adaptation
reflection aspect weaving interface operation invocation reference broker
adapter servant dispatch marshal unmarshal encode decode frame fragment header
context tag session key cipher digest window pipeline future promise channel
queue worker thread process socket connection stream packet segment link host
network group member quorum vote failure recovery monitor observer metric
trace span sample profile budget bound regression baseline median percentile`)

// ringSize is how many distinct payloads a caller cycles through. Cycling
// averages the compressed size over many texts, which keeps
// wire_bytes_per_op steady across seeds.
const ringSize = 64

// callIDSize is the prefix of every payload that carries the call id:
// caller index and per-caller sequence number, both big-endian uint32.
const callIDSize = 8

// argRing is a caller's ring of pre-encoded echo arguments. Each entry is
// a CDR octet sequence whose payload starts with the call id; the id is
// patched in place per call so the measured window allocates nothing here.
type argRing struct {
	args [][]byte
	size int
}

// newArgRing builds n arguments of size payload bytes from rng.
func newArgRing(rng *rand.Rand, order cdr.ByteOrder, n, size int) *argRing {
	r := &argRing{args: make([][]byte, n), size: size}
	text := make([]byte, size)
	for i := range r.args {
		fillText(rng, text[callIDSize:])
		e := cdr.NewEncoder(order)
		e.WriteOctets(text)
		r.args[i] = e.Bytes()
	}
	return r
}

// fillText fills p with space-separated words sampled from vocabulary.
func fillText(rng *rand.Rand, p []byte) {
	for n := 0; n < len(p); {
		n += copy(p[n:], vocabulary[rng.Intn(len(vocabulary))])
		if n < len(p) {
			p[n] = ' '
			n++
		}
	}
}

// stamp writes the call id into entry i and returns the encoded arguments
// and the payload they carry.
func (r *argRing) stamp(i int, caller, seq uint32) (args, payload []byte) {
	args = r.args[i]
	payload = args[4 : 4+r.size] // a CDR octet sequence is length then bytes
	binary.BigEndian.PutUint32(payload[0:4], caller)
	binary.BigEndian.PutUint32(payload[4:8], seq)
	return args, payload
}

// callIDOf extracts the call id from CDR-encoded echo arguments; ok is
// false when the arguments are too short to carry one.
func callIDOf(args []byte) (caller, seq uint32, ok bool) {
	if len(args) < 4+callIDSize {
		return 0, 0, false
	}
	return binary.BigEndian.Uint32(args[4:8]), binary.BigEndian.Uint32(args[8:12]), true
}
