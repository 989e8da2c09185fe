package orb

import (
	"context"
	"errors"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/netsim"
)

// calcServant is a DynamicServant exposing arithmetic for DII tests.
func newCalcServant() *DynamicServant {
	return &DynamicServant{Ops: map[string]DynamicOp{
		"add": {
			Params: []*cdr.TypeCode{cdr.TCLong, cdr.TCLong},
			Result: cdr.TCLong,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				return cdr.Long(args[0].Value.(int32) + args[1].Value.(int32)), nil
			},
		},
		"concat": {
			Params: []*cdr.TypeCode{cdr.TCString, cdr.TCString},
			Result: cdr.TCString,
			Handler: func(args []cdr.Any) (cdr.Any, error) {
				return cdr.Str(args[0].Value.(string) + args[1].Value.(string)), nil
			},
		},
		"boom": {
			Result: cdr.TCVoid,
			Handler: func([]cdr.Any) (cdr.Any, error) {
				return cdr.Any{}, NewSystemException(ExcNoResources, 1, "boom")
			},
		},
		"noop": {
			Result:  cdr.TCVoid,
			Handler: func([]cdr.Any) (cdr.Any, error) { return cdr.Any{}, nil },
		},
	}}
}

func diiWorld(t *testing.T) (*ORB, *ORB, *Request) {
	t.Helper()
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9100"); err != nil {
		t.Fatal(err)
	}
	ref, err := server.Adapter().Activate("calc", "IDL:test/Calc:1.0", newCalcServant())
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	t.Cleanup(func() {
		client.Shutdown()
		server.Shutdown()
	})
	return client, server, client.CreateRequest(ref, "add")
}

func TestDIIAdd(t *testing.T) {
	client, server, _ := diiWorld(t)
	_ = server
	ref := server.Adapter().reference("calc")
	req := client.CreateRequest(ref, "add").
		AddArg("a", cdr.Long(20), ArgIn).
		AddArg("b", cdr.Long(22), ArgIn).
		SetResultType(cdr.TCLong)
	if err := req.Invoke(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := req.Result().Value.(int32); got != 42 {
		t.Fatalf("add = %d", got)
	}
}

func TestDIIStrings(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	req := client.CreateRequest(ref, "concat").
		AddArg("a", cdr.Str("mid"), ArgIn).
		AddArg("b", cdr.Str("dleware"), ArgIn).
		SetResultType(cdr.TCString)
	if err := req.Invoke(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := req.Result().Value.(string); got != "middleware" {
		t.Fatalf("concat = %q", got)
	}
}

func TestDIIRemoteException(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	err := client.CreateRequest(ref, "boom").Invoke(context.Background())
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcNoResources {
		t.Fatalf("err = %v", err)
	}
}

func TestDIIUnknownOp(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	err := client.CreateRequest(ref, "divide").Invoke(context.Background())
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcBadOperation {
		t.Fatalf("err = %v", err)
	}
}

func TestDIIDoubleInvokeRejected(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	req := client.CreateRequest(ref, "noop")
	if err := req.Invoke(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := req.Invoke(context.Background()); err == nil {
		t.Fatal("second invoke accepted")
	}
}

func TestDIIArgLookup(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	req := client.CreateRequest(ref, "noop").AddArg("x", cdr.Long(1), ArgIn)
	if _, ok := req.Arg("x"); !ok {
		t.Fatal("Arg(x) missing")
	}
	if _, ok := req.Arg("y"); ok {
		t.Fatal("Arg(y) found")
	}
}

// commandRecorder implements CommandHandler for tests.
type commandRecorder struct {
	target string
	op     string
}

func (c *commandRecorder) HandleCommand(target string, req *ServerRequest) error {
	c.target = target
	c.op = req.Operation
	req.Out.WriteString("handled:" + target)
	return nil
}

func TestCommandDispatch(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9200"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	rec := &commandRecorder{}
	server.SetCommandHandler(rec)
	ref, err := server.Adapter().Activate("obj", "IDL:test/X:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()

	out, err := client.Invoke(context.Background(), &Invocation{
		Target:    ref,
		Operation: "load",
		Contexts: giop.ServiceContextList{}.
			With(giop.SCCommand, EncodeCommandTarget("flate")),
		ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := out.Err(); err != nil {
		t.Fatal(err)
	}
	if rec.target != "flate" || rec.op != "load" {
		t.Fatalf("recorder = %+v", rec)
	}
	if s, err := out.Decoder().ReadString(); err != nil || s != "handled:flate" {
		t.Fatalf("reply = %q, %v", s, err)
	}
}

func TestCommandWithoutHandler(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9300"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	ref, err := server.Adapter().Activate("obj", "IDL:test/X:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()
	out, err := client.Invoke(context.Background(), &Invocation{
		Target:    ref,
		Operation: "load",
		Contexts: giop.ServiceContextList{}.
			With(giop.SCCommand, EncodeCommandTarget("")),
		ResponseExpected: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var exc *SystemException
	if !errors.As(out.Err(), &exc) || exc.Name != ExcNoImplement {
		t.Fatalf("err = %v", out.Err())
	}
}

// tagFilter is an IncomingFilter that records traffic and rewrites bodies.
type tagFilter struct {
	name    string
	log     *[]string
	failIn  bool
	failOut bool
	reverse bool
}

func (f *tagFilter) Inbound(req *ServerRequest) error {
	*f.log = append(*f.log, f.name+":in")
	if f.failIn {
		return errors.New("inbound veto")
	}
	return nil
}

func (f *tagFilter) Outbound(req *ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	*f.log = append(*f.log, f.name+":out")
	if f.failOut {
		return nil, errors.New("outbound veto")
	}
	if f.reverse && status == giop.ReplyNoException {
		d := cdr.NewDecoder(body, req.Order)
		s, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		b := []byte(s)
		for i, j := 0, len(b)-1; i < j; i, j = i+1, j-1 {
			b[i], b[j] = b[j], b[i]
		}
		e := cdr.NewEncoder(req.Order)
		e.WriteString(string(b))
		return e.Bytes(), nil
	}
	return body, nil
}

func TestFilterOrderingAndRewrite(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9400"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	var log []string
	server.AddIncomingFilter(&tagFilter{name: "a", log: &log})
	server.AddIncomingFilter(&tagFilter{name: "b", log: &log, reverse: true})
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()

	got, err := callEcho(t, client, ref, "stressed")
	if err != nil {
		t.Fatal(err)
	}
	if got != "desserts" {
		t.Fatalf("filtered echo = %q", got)
	}
	want := []string{"a:in", "b:in", "b:out", "a:out"}
	if len(log) != 4 {
		t.Fatalf("log = %v", log)
	}
	for i := range want {
		if log[i] != want[i] {
			t.Fatalf("log = %v, want %v", log, want)
		}
	}
}

func TestFilterFailureBecomesException(t *testing.T) {
	n := netsim.NewNetwork()
	server := New(Options{Transport: n.Host("server")})
	if err := server.Listen("server:9500"); err != nil {
		t.Fatal(err)
	}
	defer server.Shutdown()
	var log []string
	server.AddIncomingFilter(&tagFilter{name: "f", log: &log, failIn: true})
	ref, err := server.Adapter().Activate("echo", "IDL:test/Echo:1.0", &echoServant{})
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Transport: n.Host("client")})
	defer client.Shutdown()
	_, err = callEcho(t, client, ref, "x")
	var exc *SystemException
	if !errors.As(err, &exc) || exc.Name != ExcInternal {
		t.Fatalf("err = %v", err)
	}
}

func TestOutcomeHelpers(t *testing.T) {
	ok := &Outcome{Status: giop.ReplyNoException, Data: []byte{1}, Order: cdr.BigEndian}
	if ok.Err() != nil {
		t.Fatal("success outcome has error")
	}
	sys := outcomeFromError(NewSystemException(ExcTimeout, 1, "late"), cdr.BigEndian)
	var exc *SystemException
	if !errors.As(sys.Err(), &exc) || exc.Name != ExcTimeout {
		t.Fatalf("err = %v", sys.Err())
	}
	user := outcomeFromError(&UserException{RepoID: "IDL:U:1.0"}, cdr.BigEndian)
	var uexc *UserException
	if !errors.As(user.Err(), &uexc) || uexc.RepoID != "IDL:U:1.0" {
		t.Fatalf("err = %v", user.Err())
	}
	plain := outcomeFromError(errors.New("arbitrary"), cdr.BigEndian)
	if !errors.As(plain.Err(), &exc) || exc.Name != ExcInternal {
		t.Fatalf("err = %v", plain.Err())
	}
}

func TestExceptionErrorsIs(t *testing.T) {
	a := NewSystemException(ExcTimeout, 1, "a")
	b := NewSystemException(ExcTimeout, 2, "b")
	c := NewSystemException(ExcMarshal, 1, "c")
	if !errors.Is(a, b) || errors.Is(a, c) {
		t.Fatal("SystemException.Is misbehaves")
	}
	u1 := &UserException{RepoID: "IDL:A:1.0"}
	u2 := &UserException{RepoID: "IDL:A:1.0"}
	u3 := &UserException{RepoID: "IDL:B:1.0"}
	if !errors.Is(u1, u2) || errors.Is(u1, u3) {
		t.Fatal("UserException.Is misbehaves")
	}
}

func TestInvocationClone(t *testing.T) {
	inv := &Invocation{
		Operation: "op",
		Contexts:  giop.ServiceContextList{}.With(1, []byte("a")),
	}
	cp := inv.Clone()
	cp.Contexts = cp.Contexts.With(2, []byte("b"))
	if _, ok := inv.Contexts.Get(2); ok {
		t.Fatal("clone shares context list")
	}
}
