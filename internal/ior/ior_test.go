package ior

import (
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"maqs/internal/cdr"
)

func sample() *IOR {
	r := New("IDL:bank/Account:1.0", "10.0.0.1", 9900, []byte("adapter/account-1"))
	r.SetQoS(QoSInfo{
		Characteristics: []string{"Availability", "Compression"},
		Modules:         []string{"group", "flate"},
	})
	return r
}

func TestStringParseRoundTrip(t *testing.T) {
	r := sample()
	s := r.String()
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified = %q", s)
	}
	got, err := Parse(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, r)
	}
	info, ok, err := got.QoS()
	if err != nil || !ok {
		t.Fatalf("QoS() = %v, %v, %v", info, ok, err)
	}
	if !info.Offers("Availability") || !info.Offers("Compression") || info.Offers("Encryption") {
		t.Fatalf("characteristics = %v", info.Characteristics)
	}
	if len(info.Modules) != 2 || info.Modules[0] != "group" {
		t.Fatalf("modules = %v", info.Modules)
	}
}

func TestMarshalUnmarshalDirect(t *testing.T) {
	r := sample()
	e := cdr.NewEncoder(cdr.LittleEndian)
	r.Marshal(e)
	got, err := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.LittleEndian))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(r) || !got.QoSAware() {
		t.Fatalf("got %+v", got)
	}
}

func TestPlainReferenceNotQoSAware(t *testing.T) {
	r := New("IDL:Echo:1.0", "localhost", 1, []byte("k"))
	if r.QoSAware() {
		t.Fatal("plain reference claims QoS awareness")
	}
	if _, ok, err := r.QoS(); ok || err != nil {
		t.Fatalf("QoS() on plain ref = %v, %v", ok, err)
	}
}

func TestAlternateEndpoints(t *testing.T) {
	r := sample()
	addrs := []string{"10.0.0.1:9900", "10.0.0.2:9900", "10.0.0.3:9901"}
	r.SetAlternateEndpoints(addrs)
	got, err := Parse(r.String())
	if err != nil {
		t.Fatal(err)
	}
	eps, err := got.AlternateEndpoints()
	if err != nil {
		t.Fatal(err)
	}
	if len(eps) != 3 || eps[2] != "10.0.0.3:9901" {
		t.Fatalf("endpoints = %v", eps)
	}
	// Absent component yields nil, nil.
	plain := New("IDL:Echo:1.0", "h", 2, nil)
	eps, err = plain.AlternateEndpoints()
	if err != nil || eps != nil {
		t.Fatalf("plain endpoints = %v, %v", eps, err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",
		"NOTANIOR",
		"IOR:zzzz",
		"IOR:00",
	}
	for _, s := range cases {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) succeeded", s)
		}
	}
}

func TestUnmarshalNoProfiles(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("IDL:X:1.0")
	e.WriteULong(0)
	if _, err := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian)); err == nil {
		t.Fatal("IOR without profiles accepted")
	}
}

func TestUnknownProfileSkipped(t *testing.T) {
	// Encode an IOR with an unknown profile first, then the internet
	// profile; Unmarshal must find the internet profile.
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("IDL:X:1.0")
	e.WriteULong(2)
	e.WriteULong(777) // unknown tag
	end := e.BeginEncapsulation()
	e.WriteString("junk")
	end()
	e.WriteULong(TagProfileInternet)
	end = e.BeginEncapsulation()
	e.WriteString("host")
	e.WriteUShort(5)
	e.WriteOctets([]byte("key"))
	e.WriteULong(0)
	end()
	got, err := Unmarshal(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got.Profile.Host != "host" || got.Profile.Port != 5 || string(got.Profile.ObjectKey) != "key" {
		t.Fatalf("profile = %+v", &got.Profile)
	}
}

func TestCloneIsDeep(t *testing.T) {
	r := sample()
	cp := r.Clone()
	cp.Profile.ObjectKey[0] = 'X'
	cp.Profile.Components[0].Data[0] ^= 0xFF
	if r.Profile.ObjectKey[0] == 'X' {
		t.Fatal("object key shared")
	}
	orig := sample()
	if string(r.Profile.Components[0].Data) != string(orig.Profile.Components[0].Data) {
		t.Fatal("component data shared")
	}
}

func TestEqual(t *testing.T) {
	a := New("IDL:X:1.0", "h", 1, []byte("k"))
	b := New("IDL:X:1.0", "h", 1, []byte("k"))
	c := New("IDL:X:1.0", "h", 2, []byte("k"))
	d := New("IDL:Y:1.0", "h", 1, []byte("k"))
	if !a.Equal(b) || a.Equal(c) || a.Equal(d) || a.Equal(nil) {
		t.Fatal("Equal misbehaves")
	}
	var nilRef *IOR
	if !nilRef.Equal(nil) {
		t.Fatal("nil.Equal(nil) = false")
	}
}

func TestAddr(t *testing.T) {
	r := New("IDL:X:1.0", "example.org", 8080, nil)
	if got := r.Profile.Addr(); got != "example.org:8080" {
		t.Fatalf("Addr = %q", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(typeID, host string, port uint16, key []byte, chars []string) bool {
		r := New(typeID, host, port, key)
		if len(chars) > 0 {
			r.SetQoS(QoSInfo{Characteristics: chars})
		}
		got, err := Parse(r.String())
		if err != nil {
			return false
		}
		if !got.Equal(r) {
			return false
		}
		if len(chars) > 0 {
			info, ok, err := got.QoS()
			if err != nil || !ok || len(info.Characteristics) != len(chars) {
				return false
			}
			for i, c := range chars {
				if info.Characteristics[i] != c {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSetComponentReplaces(t *testing.T) {
	r := sample()
	r.SetQoS(QoSInfo{Characteristics: []string{"OnlyOne"}})
	info, ok, err := r.QoS()
	if err != nil || !ok {
		t.Fatal(err)
	}
	if len(info.Characteristics) != 1 || info.Characteristics[0] != "OnlyOne" {
		t.Fatalf("characteristics = %v", info.Characteristics)
	}
	if n := len(r.Profile.Components); n != 1 {
		t.Fatalf("components = %d, want 1", n)
	}
}

// TestAddrCache: Addr is built once per Host/Port value, follows a
// retargeted clone, and never outlives a write to either field.
func TestAddrCache(t *testing.T) {
	ref := New("IDL:test/T:1.0", "alpha", 7001, []byte("k"))
	if got := ref.Profile.Addr(); got != "alpha:7001" {
		t.Fatalf("Addr() = %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = ref.Profile.Addr() }); n != 0 {
		t.Fatalf("cached Addr() allocates %.0f objects per call", n)
	}
	// The retarget idiom of the load-balancing and replication mediators.
	replica := ref.Clone()
	replica.Profile.Host, replica.Profile.Port = "beta", 7002
	if got := replica.Profile.Addr(); got != "beta:7002" {
		t.Fatalf("retargeted clone Addr() = %q", got)
	}
	if got := ref.Profile.Addr(); got != "alpha:7001" {
		t.Fatalf("original Addr() = %q after retargeting its clone", got)
	}
	// A write after the cache was filled: host alone, then port alone.
	replica.Profile.Host = "::1"
	if got := replica.Profile.Addr(); got != "[::1]:7002" {
		t.Fatalf("Addr() = %q after a Host write", got)
	}
	replica.Profile.Port = 7003
	if got := replica.Profile.Addr(); got != "[::1]:7003" {
		t.Fatalf("Addr() = %q after a Port write", got)
	}
}

// TestAddrConcurrent: one reference is shared by every goroutine invoking
// on it, so filling the cache must be race-free (run under -race).
func TestAddrConcurrent(t *testing.T) {
	ref := New("IDL:test/T:1.0", "alpha", 7001, []byte("k"))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if got := ref.Profile.Addr(); got != "alpha:7001" {
					t.Errorf("Addr() = %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
}
