// Package ior implements interoperable object references: the typed,
// self-describing addresses the ORB hands out for servants.
//
// An IOR carries a repository type ID and a list of tagged profiles. The
// single profile format implemented here is an IIOP-style profile (host,
// port, object key) that additionally holds a list of tagged components.
// The component TagQoS marks an object as QoS-aware and enumerates the QoS
// characteristics its server offers — this is the "distinct tag in the
// interoperable object reference" the paper's ORB dispatch (Fig. 3) keys
// on.
package ior

import (
	"encoding/hex"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"

	"maqs/internal/cdr"
)

// Profile and component tags.
const (
	// TagProfileInternet identifies the IIOP-style profile.
	TagProfileInternet uint32 = 0
	// TagQoS is the component carrying QoSInfo. Its presence makes the
	// reference QoS-aware.
	TagQoS uint32 = 0x4D515100 // "MQQ\x00"
	// TagOrderedEndpoints carries alternate endpoints (host:port pairs)
	// for replicated objects.
	TagOrderedEndpoints uint32 = 0x4D515101
)

// Component is a tagged blob attached to a profile.
type Component struct {
	Tag  uint32
	Data []byte
}

// Profile is an IIOP-style endpoint profile. It must not be copied by
// value once in use; Clone the reference instead.
type Profile struct {
	Host       string
	Port       uint16
	ObjectKey  []byte
	Components []Component

	// addr caches the rendering Addr built last. Host and Port stay plain
	// exported fields that callers retarget after Clone, so the cache
	// records what it was built from and Addr checks it on every use.
	addr atomic.Pointer[endpoint]
}

// endpoint is one rendered host:port with the fields it was rendered from.
type endpoint struct {
	host string
	port uint16
	addr string
}

// Addr renders the profile endpoint as host:port. Every invocation asks
// for it (connection lookup, breaker lookup, flight record), so the string
// is built once per Host/Port value, not once per call. Concurrent callers
// are safe; writing Host or Port needs the same exclusion from readers it
// always did.
func (p *Profile) Addr() string {
	if c := p.addr.Load(); c != nil && c.port == p.Port && c.host == p.Host {
		return c.addr
	}
	c := &endpoint{host: p.Host, port: p.Port, addr: net.JoinHostPort(p.Host, strconv.Itoa(int(p.Port)))}
	p.addr.Store(c)
	return c.addr
}

// component returns the data of the first component with the given tag.
func (p *Profile) component(tag uint32) ([]byte, bool) {
	for _, c := range p.Components {
		if c.Tag == tag {
			return c.Data, true
		}
	}
	return nil, false
}

// setComponent appends a component, replacing an existing one of the same
// tag.
func (p *Profile) setComponent(tag uint32, data []byte) {
	for i, c := range p.Components {
		if c.Tag == tag {
			p.Components[i].Data = data
			return
		}
	}
	p.Components = append(p.Components, Component{Tag: tag, Data: data})
}

// IOR is an interoperable object reference.
type IOR struct {
	// TypeID is the repository ID of the most derived interface, e.g.
	// "IDL:bank/Account:1.0".
	TypeID  string
	Profile Profile
}

// New constructs an IOR for the given type, endpoint and object key.
func New(typeID, host string, port uint16, objectKey []byte) *IOR {
	return &IOR{
		TypeID: typeID,
		Profile: Profile{
			Host:      host,
			Port:      port,
			ObjectKey: append([]byte(nil), objectKey...),
		},
	}
}

// QoSInfo describes the QoS capabilities advertised in a reference.
type QoSInfo struct {
	// Characteristics lists the names of QoS characteristics the server
	// supports for this object.
	Characteristics []string
	// Modules lists transport-layer QoS modules the server can serve
	// requests through.
	Modules []string
}

// Offers reports whether the given characteristic is advertised.
func (q *QoSInfo) Offers(characteristic string) bool {
	for _, c := range q.Characteristics {
		if c == characteristic {
			return true
		}
	}
	return false
}

// SetQoS attaches (or replaces) the TagQoS component describing the QoS
// capabilities of the referenced object.
func (r *IOR) SetQoS(info QoSInfo) {
	e := cdr.NewEncoder(cdr.BigEndian)
	end := e.BeginEncapsulation()
	e.WriteULong(uint32(len(info.Characteristics)))
	for _, c := range info.Characteristics {
		e.WriteString(c)
	}
	e.WriteULong(uint32(len(info.Modules)))
	for _, m := range info.Modules {
		e.WriteString(m)
	}
	end()
	r.Profile.setComponent(TagQoS, e.Bytes())
}

// QoS extracts the TagQoS component. ok is false when the reference is not
// QoS-aware.
func (r *IOR) QoS() (info QoSInfo, ok bool, err error) {
	data, ok := r.Profile.component(TagQoS)
	if !ok {
		return QoSInfo{}, false, nil
	}
	d, err := cdr.NewDecoder(data, cdr.BigEndian).BeginEncapsulation()
	if err != nil {
		return QoSInfo{}, false, fmt.Errorf("ior: decoding QoS component: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return QoSInfo{}, false, fmt.Errorf("ior: decoding QoS characteristic count: %w", err)
	}
	if n > 1024 {
		return QoSInfo{}, false, fmt.Errorf("ior: QoS characteristic count %d exceeds limit", n)
	}
	for i := uint32(0); i < n; i++ {
		s, err := d.ReadString()
		if err != nil {
			return QoSInfo{}, false, fmt.Errorf("ior: decoding QoS characteristic: %w", err)
		}
		info.Characteristics = append(info.Characteristics, s)
	}
	m, err := d.ReadULong()
	if err != nil {
		return QoSInfo{}, false, fmt.Errorf("ior: decoding QoS module count: %w", err)
	}
	if m > 1024 {
		return QoSInfo{}, false, fmt.Errorf("ior: QoS module count %d exceeds limit", m)
	}
	for i := uint32(0); i < m; i++ {
		s, err := d.ReadString()
		if err != nil {
			return QoSInfo{}, false, fmt.Errorf("ior: decoding QoS module: %w", err)
		}
		info.Modules = append(info.Modules, s)
	}
	return info, true, nil
}

// QoSAware reports whether the reference carries a TagQoS component.
func (r *IOR) QoSAware() bool {
	_, ok := r.Profile.component(TagQoS)
	return ok
}

// SetAlternateEndpoints attaches an ordered list of alternate endpoints
// ("host:port") used by replication-aware mediators.
func (r *IOR) SetAlternateEndpoints(addrs []string) {
	e := cdr.NewEncoder(cdr.BigEndian)
	end := e.BeginEncapsulation()
	e.WriteULong(uint32(len(addrs)))
	for _, a := range addrs {
		e.WriteString(a)
	}
	end()
	r.Profile.setComponent(TagOrderedEndpoints, e.Bytes())
}

// AlternateEndpoints extracts the ordered alternate endpoint list, or nil.
func (r *IOR) AlternateEndpoints() ([]string, error) {
	data, ok := r.Profile.component(TagOrderedEndpoints)
	if !ok {
		return nil, nil
	}
	d, err := cdr.NewDecoder(data, cdr.BigEndian).BeginEncapsulation()
	if err != nil {
		return nil, fmt.Errorf("ior: decoding endpoints component: %w", err)
	}
	n, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("ior: decoding endpoint count: %w", err)
	}
	if n > 4096 {
		return nil, fmt.Errorf("ior: endpoint count %d exceeds limit", n)
	}
	addrs := make([]string, 0, n)
	for i := uint32(0); i < n; i++ {
		a, err := d.ReadString()
		if err != nil {
			return nil, fmt.Errorf("ior: decoding endpoint: %w", err)
		}
		addrs = append(addrs, a)
	}
	return addrs, nil
}

// Marshal writes the IOR onto e.
func (r *IOR) Marshal(e *cdr.Encoder) {
	e.WriteString(r.TypeID)
	e.WriteULong(1) // one profile
	e.WriteULong(TagProfileInternet)
	end := e.BeginEncapsulation()
	e.WriteString(r.Profile.Host)
	e.WriteUShort(r.Profile.Port)
	e.WriteOctets(r.Profile.ObjectKey)
	e.WriteULong(uint32(len(r.Profile.Components)))
	for _, c := range r.Profile.Components {
		e.WriteULong(c.Tag)
		e.WriteOctets(c.Data)
	}
	end()
}

// Unmarshal reads an IOR from d.
func Unmarshal(d *cdr.Decoder) (*IOR, error) {
	var r IOR
	var err error
	if r.TypeID, err = d.ReadString(); err != nil {
		return nil, fmt.Errorf("ior: reading type id: %w", err)
	}
	nProfiles, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("ior: reading profile count: %w", err)
	}
	if nProfiles == 0 {
		return nil, fmt.Errorf("ior: reference for %q has no profiles", r.TypeID)
	}
	if nProfiles > 64 {
		return nil, fmt.Errorf("ior: profile count %d exceeds limit", nProfiles)
	}
	seen := false
	for i := uint32(0); i < nProfiles; i++ {
		tag, err := d.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("ior: reading profile tag: %w", err)
		}
		body, err := d.BeginEncapsulation()
		if err != nil {
			return nil, fmt.Errorf("ior: reading profile body: %w", err)
		}
		if tag != TagProfileInternet || seen {
			continue // skip unknown or extra profiles
		}
		seen = true
		if r.Profile.Host, err = body.ReadString(); err != nil {
			return nil, fmt.Errorf("ior: reading host: %w", err)
		}
		if r.Profile.Port, err = body.ReadUShort(); err != nil {
			return nil, fmt.Errorf("ior: reading port: %w", err)
		}
		key, err := body.ReadOctets()
		if err != nil {
			return nil, fmt.Errorf("ior: reading object key: %w", err)
		}
		r.Profile.ObjectKey = append([]byte(nil), key...)
		nComp, err := body.ReadULong()
		if err != nil {
			return nil, fmt.Errorf("ior: reading component count: %w", err)
		}
		if nComp > 256 {
			return nil, fmt.Errorf("ior: component count %d exceeds limit", nComp)
		}
		for j := uint32(0); j < nComp; j++ {
			ctag, err := body.ReadULong()
			if err != nil {
				return nil, fmt.Errorf("ior: reading component tag: %w", err)
			}
			data, err := body.ReadOctets()
			if err != nil {
				return nil, fmt.Errorf("ior: reading component data: %w", err)
			}
			r.Profile.Components = append(r.Profile.Components,
				Component{Tag: ctag, Data: append([]byte(nil), data...)})
		}
	}
	if !seen {
		return nil, fmt.Errorf("ior: reference for %q has no internet profile", r.TypeID)
	}
	return &r, nil
}

// String renders the reference in the stringified "IOR:<hex>" form.
func (r *IOR) String() string {
	e := cdr.NewEncoder(cdr.BigEndian)
	end := e.BeginEncapsulation()
	r.Marshal(e)
	end()
	return "IOR:" + hex.EncodeToString(e.Bytes())
}

// Parse decodes a stringified reference produced by String.
func Parse(s string) (*IOR, error) {
	if !strings.HasPrefix(s, "IOR:") {
		return nil, fmt.Errorf("ior: %q does not start with IOR:", truncate(s))
	}
	raw, err := hex.DecodeString(s[4:])
	if err != nil {
		return nil, fmt.Errorf("ior: decoding hex: %w", err)
	}
	d, err := cdr.NewDecoder(raw, cdr.BigEndian).BeginEncapsulation()
	if err != nil {
		return nil, fmt.Errorf("ior: decoding envelope: %w", err)
	}
	return Unmarshal(d)
}

func truncate(s string) string {
	if len(s) > 16 {
		return s[:16] + "..."
	}
	return s
}

// Equal reports whether two references denote the same object at the same
// endpoint (type, host, port, object key).
func (r *IOR) Equal(other *IOR) bool {
	if r == nil || other == nil {
		return r == other
	}
	return r.TypeID == other.TypeID &&
		r.Profile.Host == other.Profile.Host &&
		r.Profile.Port == other.Profile.Port &&
		string(r.Profile.ObjectKey) == string(other.Profile.ObjectKey)
}

// Clone returns a deep copy of the reference.
func (r *IOR) Clone() *IOR {
	cp := &IOR{TypeID: r.TypeID, Profile: Profile{
		Host:      r.Profile.Host,
		Port:      r.Profile.Port,
		ObjectKey: append([]byte(nil), r.Profile.ObjectKey...),
	}}
	for _, c := range r.Profile.Components {
		cp.Profile.Components = append(cp.Profile.Components,
			Component{Tag: c.Tag, Data: append([]byte(nil), c.Data...)})
	}
	return cp
}

// At returns a copy of the reference retargeted at endpoint ("host:port"):
// the same object on another server of its group.
func (r *IOR) At(endpoint string) (*IOR, error) {
	host, portStr, err := net.SplitHostPort(endpoint)
	if err != nil {
		return nil, fmt.Errorf("ior: bad endpoint %q: %w", endpoint, err)
	}
	port, err := strconv.ParseUint(portStr, 10, 16)
	if err != nil {
		return nil, fmt.Errorf("ior: bad port in endpoint %q: %w", endpoint, err)
	}
	cp := r.Clone()
	cp.Profile.Host, cp.Profile.Port = host, uint16(port)
	return cp, nil
}
