package orb

import (
	"errors"
	"testing"

	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
)

// TestLocationForwardFollowed verifies that a client transparently
// follows a LOCATION_FORWARD reply to the migrated object.
func TestLocationForwardFollowed(t *testing.T) {
	n := netsim.NewNetwork()
	// New home of the object.
	home := New(Options{Transport: n.Host("home")})
	if err := home.Listen("home:1"); err != nil {
		t.Fatal(err)
	}
	defer home.Shutdown()
	homeRef, err := home.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	// Old location: every request is answered with a forward.
	old := New(Options{Transport: n.Host("old")})
	if err := old.Listen("old:1"); err != nil {
		t.Fatal(err)
	}
	defer old.Shutdown()
	oldRef, err := old.Adapter().Activate("echo", "IDL:test/Echo:1.0",
		ServantFunc(func(req *ServerRequest) error {
			return &ForwardRequest{To: homeRef}
		}))
	if err != nil {
		t.Fatal(err)
	}

	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()
	got, err := callEcho(t, client, oldRef, "follow me")
	if err != nil {
		t.Fatal(err)
	}
	if got != "follow me" {
		t.Fatalf("echo = %q", got)
	}
}

// TestLocationForwardLoopBounded verifies that mutual forwards terminate
// with TRANSIENT instead of looping.
func TestLocationForwardLoopBounded(t *testing.T) {
	n := netsim.NewNetwork()
	a := New(Options{Transport: n.Host("a")})
	if err := a.Listen("a:1"); err != nil {
		t.Fatal(err)
	}
	defer a.Shutdown()
	b := New(Options{Transport: n.Host("b")})
	if err := b.Listen("b:1"); err != nil {
		t.Fatal(err)
	}
	defer b.Shutdown()

	refA := ior.New("IDL:test/Echo:1.0", "a", 1, []byte("ping"))
	refB := ior.New("IDL:test/Echo:1.0", "b", 1, []byte("pong"))
	if _, err := a.Adapter().Activate("ping", "IDL:test/Echo:1.0",
		ServantFunc(func(*ServerRequest) error { return &ForwardRequest{To: refB} })); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Adapter().Activate("pong", "IDL:test/Echo:1.0",
		ServantFunc(func(*ServerRequest) error { return &ForwardRequest{To: refA} })); err != nil {
		t.Fatal(err)
	}

	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()
	_, err := callEcho(t, client, refA, "dizzy")
	var sys *SystemException
	if !errors.As(err, &sys) || sys.Name != ExcTransient {
		t.Fatalf("err = %v", err)
	}
}

// TestForwardRequestOutcomeRoundTrip pins the wire encoding.
func TestForwardRequestOutcomeRoundTrip(t *testing.T) {
	ref := ior.New("IDL:test/X:1.0", "h", 7, []byte("k"))
	out := outcomeFromError(&ForwardRequest{To: ref}, 0)
	target, err := out.forwardTarget()
	if err != nil {
		t.Fatal(err)
	}
	if !target.Equal(ref) {
		t.Fatalf("target = %+v", target)
	}
	var fwd *ForwardRequest
	if !errors.As(out.Err(), &fwd) || !fwd.To.Equal(ref) {
		t.Fatalf("Err() = %v", out.Err())
	}
	// Non-forward outcomes reject forwardTarget.
	if _, err := (&Outcome{Status: giop.ReplyNoException}).forwardTarget(); err == nil {
		t.Fatal("forward target from success outcome")
	}
}
