package orb

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/ior"
	"maqs/internal/netsim"
)

// reference re-mints the IOR for an active key, or nil if inactive.
func (a *Adapter) reference(key string) *ior.IOR {
	v, ok := a.servants.Load(key)
	if !ok {
		return nil
	}
	act := v.(*activation)
	host, port, bound := a.orb.Endpoint()
	if !bound {
		return nil
	}
	ref := ior.New(act.typeID, host, port, []byte(key))
	if act.qos != nil {
		ref.SetQoS(*act.qos)
	}
	return ref
}

// echoServant echoes its string argument, with a couple of trick
// operations for exception testing.
type echoServant struct {
	mu       sync.Mutex
	oneways  int
	lastSeen string
}

func (s *echoServant) Invoke(req *ServerRequest) error {
	switch req.Operation {
	case "echo":
		msg, err := req.In().ReadString()
		if err != nil {
			return NewSystemException(ExcMarshal, 1, "bad arg: %v", err)
		}
		req.Out.WriteString(msg)
		return nil
	case "fail_user":
		e := cdr.NewEncoder(req.Order)
		e.WriteString("details")
		return &UserException{RepoID: "IDL:test/Boom:1.0", Data: e.Bytes()}
	case "fail_system":
		return NewSystemException(ExcNoResources, 7, "out of imaginary memory")
	case "fail_plain":
		return errors.New("plain go error")
	case "slow":
		time.Sleep(200 * time.Millisecond)
		req.Out.WriteString("finally")
		return nil
	case "note":
		msg, err := req.In().ReadString()
		if err != nil {
			return err
		}
		s.mu.Lock()
		s.oneways++
		s.lastSeen = msg
		s.mu.Unlock()
		return nil
	default:
		return NewSystemException(ExcBadOperation, 2, "no such op %q", req.Operation)
	}
}

// testWorld wires a server ORB and a client ORB over a simulated network.
type testWorld struct {
	net     *netsim.Network
	server  *ORB
	client  *ORB
	servant *echoServant
	ref     *ior.IOR
}

func newWorld(t *testing.T) *testWorld {
	t.Helper()
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	servant := &echoServant{}
	ref, err := server.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return &testWorld{net: n, server: server, client: client, servant: servant, ref: ref}
}

// callEcho performs one echo invocation through the raw invocation API.
func callEcho(t *testing.T, o *ORB, ref *ior.IOR, msg string) (string, error) {
	t.Helper()
	return callEchoErr(o, ref, msg)
}

// callEchoErr is callEcho for use off the test goroutine.
func callEchoErr(o *ORB, ref *ior.IOR, msg string) (string, error) {
	out, err := o.Invoke(context.Background(), echoInvocation(o, ref, msg, false))
	if err != nil {
		return "", err
	}
	if err := out.Err(); err != nil {
		return "", err
	}
	return out.Decoder().ReadString()
}

func TestEchoRoundTrip(t *testing.T) {
	w := newWorld(t)
	got, err := callEcho(t, w.client, w.ref, "hello middleware")
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello middleware" {
		t.Fatalf("echo = %q", got)
	}
}

func TestEchoOverTCP(t *testing.T) {
	server := New(Options{Transport: &netsim.TCP{DialTimeout: time.Second}})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: &netsim.TCP{DialTimeout: time.Second}})
	defer client.Shutdown()
	got, err := callEcho(t, client, ref, "over tcp")
	if err != nil {
		t.Fatal(err)
	}
	if got != "over tcp" {
		t.Fatalf("echo = %q", got)
	}
}

func TestStringifiedReferenceWorks(t *testing.T) {
	w := newWorld(t)
	parsed, err := ior.Parse(w.ref.String())
	if err != nil {
		t.Fatal(err)
	}
	got, err := callEcho(t, w.client, parsed, "via IOR string")
	if err != nil {
		t.Fatal(err)
	}
	if got != "via IOR string" {
		t.Fatalf("echo = %q", got)
	}
}

func TestConcurrentInvocationsShareOneConnection(t *testing.T) {
	w := newWorld(t)
	var wg sync.WaitGroup
	errs := make(chan error, 32)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			msg := string(rune('A' + i%26))
			got, err := callEcho(t, w.client, w.ref, msg)
			if err != nil {
				errs <- err
				return
			}
			if got != msg {
				errs <- errors.New("mismatched echo " + got + " != " + msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestUserException(t *testing.T) {
	w := newWorld(t)
	out, err := w.client.Invoke(context.Background(), &Invocation{
		Target: w.ref, Operation: "fail_user", ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != giop.ReplyUserException {
		t.Fatalf("status = %v", out.Status)
	}
	var exc *UserException
	if !errors.As(out.Err(), &exc) {
		t.Fatalf("err = %v", out.Err())
	}
	if exc.RepoID != "IDL:test/Boom:1.0" {
		t.Fatalf("repo id = %q", exc.RepoID)
	}
	d := cdr.NewDecoder(exc.Data, out.Order)
	if s, err := d.ReadString(); err != nil || s != "details" {
		t.Fatalf("payload = %q, %v", s, err)
	}
}

func TestSystemException(t *testing.T) {
	w := newWorld(t)
	out, err := w.client.Invoke(context.Background(), &Invocation{
		Target: w.ref, Operation: "fail_system", ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var exc *SystemException
	if !errors.As(out.Err(), &exc) {
		t.Fatalf("err = %v", out.Err())
	}
	if exc.Name != ExcNoResources || exc.Minor != 7 {
		t.Fatalf("exc = %+v", exc)
	}
}

func TestPlainErrorBecomesInternal(t *testing.T) {
	w := newWorld(t)
	out, err := w.client.Invoke(context.Background(), &Invocation{
		Target: w.ref, Operation: "fail_plain", ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var exc *SystemException
	if !errors.As(out.Err(), &exc) || exc.Name != ExcInternal {
		t.Fatalf("err = %v", out.Err())
	}
}

func TestUnknownObjectKey(t *testing.T) {
	w := newWorld(t)
	bogus := w.ref.Clone()
	bogus.Profile.ObjectKey = []byte("no-such-object")
	_, err := callEcho(t, w.client, bogus, "x")
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcObjectNotExist {
		t.Fatalf("err = %v", err)
	}
}

func TestUnknownOperation(t *testing.T) {
	w := newWorld(t)
	out, err := w.client.Invoke(context.Background(), &Invocation{
		Target: w.ref, Operation: "frobnicate", ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var exc *SystemException
	if !errors.As(out.Err(), &exc) || exc.Name != ExcBadOperation {
		t.Fatalf("err = %v", out.Err())
	}
}

func TestOneWay(t *testing.T) {
	w := newWorld(t)
	e := cdr.NewEncoder(w.client.Order())
	e.WriteString("fire and forget")
	out, err := w.client.Invoke(context.Background(), &Invocation{
		Target: w.ref, Operation: "note", Args: e.Bytes(), ResponseExpected: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Status != giop.ReplyNoException {
		t.Fatalf("status = %v", out.Status)
	}
	// The oneway has no reply; poll the servant until it lands.
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.servant.mu.Lock()
		n, last := w.servant.oneways, w.servant.lastSeen
		w.servant.mu.Unlock()
		if n == 1 {
			if last != "fire and forget" {
				t.Fatalf("servant saw %q", last)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("oneway never arrived")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestInvocationTimeout(t *testing.T) {
	w := newWorld(t)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, err := w.client.Invoke(ctx, &Invocation{
		Target: w.ref, Operation: "slow", ResponseExpected: true,
	})
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcTimeout {
		t.Fatalf("err = %v", err)
	}
}

func TestLocate(t *testing.T) {
	w := newWorld(t)
	here, err := w.client.Locate(context.Background(), w.ref)
	if err != nil {
		t.Fatal(err)
	}
	if !here {
		t.Fatal("object not located")
	}
	bogus := w.ref.Clone()
	bogus.Profile.ObjectKey = []byte("ghost")
	here, err = w.client.Locate(context.Background(), bogus)
	if err != nil {
		t.Fatal(err)
	}
	if here {
		t.Fatal("ghost object located")
	}
}

func TestServerCrashFailsPendingAndReconnects(t *testing.T) {
	w := newWorld(t)
	if _, err := callEcho(t, w.client, w.ref, "warm"); err != nil {
		t.Fatal(err)
	}
	w.net.Crash("server")
	_, err := callEcho(t, w.client, w.ref, "during crash")
	var exc *SystemException
	if !errors.As(err, &exc) {
		t.Fatalf("err = %v", err)
	}
	if exc.Name != ExcCommFailure && exc.Name != ExcTransient {
		t.Fatalf("exception = %v", exc.Name)
	}

	// Server comes back: rebind, reactivate, invoke again.
	w.net.Restart("server")
	server2 := New(Options{Transport: w.net.Host("server")})
	defer server2.Shutdown()
	if err := server2.Listen("server:9000"); err != nil {
		t.Fatal(err)
	}
	if _, err := server2.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", &echoServant{}); err != nil {
		t.Fatal(err)
	}
	got, err := callEcho(t, w.client, w.ref, "after restart")
	if err != nil {
		t.Fatalf("after restart: %v", err)
	}
	if got != "after restart" {
		t.Fatalf("echo = %q", got)
	}
}

func TestAdapterLifecycle(t *testing.T) {
	w := newWorld(t)
	// Double activation rejected.
	if _, err := w.server.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", &echoServant{}); err == nil {
		t.Fatal("double activation accepted")
	}
	// Empty key / nil servant rejected.
	if _, err := w.server.Adapter().Activate("", "IDL:test/Echo:1.0", &echoServant{}); err == nil {
		t.Fatal("empty key accepted")
	}
	if _, err := w.server.Adapter().Activate("x", "IDL:test/Echo:1.0", nil); err == nil {
		t.Fatal("nil servant accepted")
	}
	// Deactivation takes effect.
	w.server.Adapter().Deactivate("echo-1")
	_, err := callEcho(t, w.client, w.ref, "x")
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcObjectNotExist {
		t.Fatalf("err after deactivate = %v", err)
	}
}

func TestActivateBeforeListenFails(t *testing.T) {
	o := New(Options{Transport: netsim.NewNetwork()})
	defer o.Shutdown()
	if _, err := o.Adapter().Activate("k", "IDL:X:1.0", &echoServant{}); err == nil {
		t.Fatal("activation without endpoint accepted")
	}
}

func TestShutdownRejectsFurtherWork(t *testing.T) {
	w := newWorld(t)
	w.client.Shutdown()
	_, err := callEcho(t, w.client, w.ref, "x")
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcCommFailure {
		t.Fatalf("err = %v", err)
	}
	if err := w.client.Listen("client:1"); err == nil {
		t.Fatal("listen after shutdown accepted")
	}
}

func TestQoSAwareActivation(t *testing.T) {
	w := newWorld(t)
	ref, err := w.server.Adapter().ActivateQoS("echo-qos", "IDL:test/Echo:1.0", &echoServant{},
		ior.QoSInfo{Characteristics: []string{"Compression"}, Modules: []string{"flate"}})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.QoSAware() {
		t.Fatal("reference not QoS aware")
	}
	info, ok, err := ref.QoS()
	if err != nil || !ok || !info.Offers("Compression") {
		t.Fatalf("QoS info = %+v, %v, %v", info, ok, err)
	}
	// Still invocable through the default path.
	got, err := callEcho(t, w.client, ref, "qos-tagged")
	if err != nil || got != "qos-tagged" {
		t.Fatalf("echo = %q, %v", got, err)
	}
}

// TestCloneThenRetargetDialsNewEndpoint: the mediators that fan out over
// replicas Clone a reference and overwrite Profile.Host/Port. The cached
// endpoint string of the reference must not follow the clone, nor survive
// the write when the original's cache was already warm.
func TestCloneThenRetargetDialsNewEndpoint(t *testing.T) {
	w := newWorld(t)
	other := New(Options{Transport: w.net.Host("other")})
	if err := other.Listen("other:9001"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(other.Shutdown)
	second := &echoServant{}
	if _, err := other.Adapter().Activate("echo-1", "IDL:test/Echo:1.0", second); err != nil {
		t.Fatal(err)
	}

	if _, err := callEcho(t, w.client, w.ref, "warm"); err != nil { // fills w.ref's cache
		t.Fatal(err)
	}
	replica := w.ref.Clone()
	replica.Profile.Host, replica.Profile.Port = "other", 9001
	note := func(ref *ior.IOR, msg string) {
		t.Helper()
		e := cdr.NewEncoder(w.client.Order())
		e.WriteString(msg)
		out, err := w.client.Invoke(context.Background(), &Invocation{
			Target: ref, Operation: "note", Args: e.Bytes(), ResponseExpected: true, Order: w.client.Order(),
		})
		if err != nil || out.Err() != nil {
			t.Fatalf("note %q: %v / %v", msg, err, out.Err())
		}
	}
	seen := func(s *echoServant) string {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.lastSeen
	}
	note(replica, "to the replica")
	note(w.ref, "to the original")
	if got := seen(second); got != "to the replica" {
		t.Fatalf("retargeted clone reached the wrong server: replica saw %q", got)
	}
	if got := seen(w.servant); got != "to the original" {
		t.Fatalf("original reference reached the wrong server: it saw %q", got)
	}
	// Retarget in place, cache warm: the next call must follow the write.
	replica.Profile.Host, replica.Profile.Port = "server", 9000
	note(replica, "back again")
	if got := seen(w.servant); got != "back again" {
		t.Fatalf("in-place retarget kept dialing the old endpoint: original saw %q", got)
	}
}

// TestOutcomeDecoderEmbedded: the reply decoder lives in the Outcome, so
// reading a reply allocates nothing, and every call hands it out rewound.
func TestOutcomeDecoderEmbedded(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteString("result")
	out := &Outcome{Status: giop.ReplyNoException, Data: e.Bytes(), Order: cdr.BigEndian}
	for i := 0; i < 2; i++ {
		if got, err := out.Decoder().ReadString(); err != nil || got != "result" {
			t.Fatalf("read %d: %q, %v", i, got, err)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _, _ = out.Decoder().ReadULong() }); n != 0 {
		t.Fatalf("Outcome.Decoder allocates %.0f objects per call", n)
	}
}
