package orb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"maqs/internal/cdr"
)

// TestDIIDeferredSend exercises the DII's deferred invocation protocol:
// Send returns with the request on the wire, GetResponse collects and
// decodes the reply later.
func TestDIIDeferredSend(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	ctx := context.Background()

	req := client.CreateRequest(ref, "add").
		AddArg("a", cdr.Long(40), ArgIn).
		AddArg("b", cdr.Long(2), ArgIn).
		SetResultType(cdr.TCLong)
	if err := req.Send(ctx); err != nil {
		t.Fatal(err)
	}
	if req.Future() == nil {
		t.Fatal("no future after Send")
	}
	if err := req.GetResponse(ctx); err != nil {
		t.Fatal(err)
	}
	if got := req.Result().Value.(int32); got != 42 {
		t.Fatalf("deferred add = %d", got)
	}
	// GetResponse consumed the future; a second collect must fail.
	if err := req.GetResponse(ctx); err == nil {
		t.Fatal("second GetResponse succeeded")
	}
}

func TestDIIGetResponseBeforeSend(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	req := client.CreateRequest(ref, "noop")
	if err := req.GetResponse(context.Background()); err == nil ||
		!strings.Contains(err.Error(), "before Send") {
		t.Fatalf("GetResponse before Send: %v", err)
	}
}

// TestDIIMulticall batches several deferred requests into one flush and
// verifies positional results, including an element whose remote raises.
func TestDIIMulticall(t *testing.T) {
	client, server, _ := diiWorld(t)
	ref := server.Adapter().reference("calc")
	ctx := context.Background()

	reqs := []*Request{
		client.CreateRequest(ref, "add").
			AddArg("a", cdr.Long(1), ArgIn).
			AddArg("b", cdr.Long(2), ArgIn).
			SetResultType(cdr.TCLong),
		client.CreateRequest(ref, "concat").
			AddArg("a", cdr.Str("multi"), ArgIn).
			AddArg("b", cdr.Str("call"), ArgIn).
			SetResultType(cdr.TCString),
		client.CreateRequest(ref, "boom"),
		client.CreateRequest(ref, "add").
			AddArg("a", cdr.Long(20), ArgIn).
			AddArg("b", cdr.Long(22), ArgIn).
			SetResultType(cdr.TCLong),
	}
	errs := client.Multicall(ctx, reqs...)
	if len(errs) != len(reqs) {
		t.Fatalf("got %d errors for %d requests", len(errs), len(reqs))
	}
	if errs[0] != nil || errs[1] != nil || errs[3] != nil {
		t.Fatalf("healthy elements failed: %v", errs)
	}
	var sysErr *SystemException
	if errs[2] == nil || !errors.As(errs[2], &sysErr) || sysErr.Name != ExcNoResources {
		t.Fatalf("boom element: want NO_RESOURCES, got %v", errs[2])
	}
	if got := reqs[0].Result().Value.(int32); got != 3 {
		t.Fatalf("elem 0 = %d", got)
	}
	if got := reqs[1].Result().Value.(string); got != "multicall" {
		t.Fatalf("elem 1 = %q", got)
	}
	if got := reqs[3].Result().Value.(int32); got != 42 {
		t.Fatalf("elem 3 = %d", got)
	}
}
