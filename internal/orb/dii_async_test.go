package orb

import (
	"context"
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
