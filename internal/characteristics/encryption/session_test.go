package encryption

import (
	"bytes"
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/giop"
	"maqs/internal/orb"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// goldenFrame is one "seal" line of testdata/golden_frames.txt.
type goldenFrame struct {
	dir            byte
	seq            uint64
	payload, frame []byte
}

// readGolden parses testdata/golden_frames.txt: the frames the current
// format seals under testKeys, and frames of the format before it.
func readGolden(tb testing.TB) (sealed []goldenFrame, legacy [][]byte) {
	tb.Helper()
	data, err := os.ReadFile("testdata/golden_frames.txt")
	if err != nil {
		tb.Fatal(err)
	}
	unhex := func(s string) []byte {
		if s == "-" {
			return nil
		}
		b, err := hex.DecodeString(s)
		if err != nil {
			tb.Fatal(err)
		}
		return b
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		switch {
		case len(fields) == 0 || strings.HasPrefix(fields[0], "#"):
		case fields[0] == "seal" && len(fields) == 5:
			dir, err := strconv.ParseUint(fields[1], 10, 8)
			if err != nil {
				tb.Fatal(err)
			}
			seq, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				tb.Fatal(err)
			}
			sealed = append(sealed, goldenFrame{byte(dir), seq, unhex(fields[3]), unhex(fields[4])})
		case fields[0] == "legacy" && len(fields) == 2:
			legacy = append(legacy, unhex(fields[1]))
		default:
			tb.Fatalf("bad golden line %q", line)
		}
	}
	return sealed, legacy
}

// TestGoldenFrames pins the wire format. A fresh session per direction
// seals the golden payloads in sequence order and must emit the golden
// frames byte for byte; open takes each back in its own direction. Frames
// of the format before it must fail as integrity errors — as they are, and
// with their first octet forged to the direction, so the AEAD judges them.
func TestGoldenFrames(t *testing.T) {
	sealed, legacy := readGolden(t)
	if len(sealed) != 6 || len(legacy) != 3 {
		t.Fatalf("read %d sealed and %d legacy golden frames, want 6 and 3", len(sealed), len(legacy))
	}
	m := testModule()
	sessions := map[byte]*sessionKeys{toServer: testKeys(), toClient: testKeys()}
	for _, g := range sealed {
		k := sessions[g.dir]
		if k == nil || k.sent.Load()+1 != g.seq {
			t.Fatalf("golden frame direction %d sequence %d out of order", g.dir, g.seq)
		}
		if got := m.seal(k, g.dir, g.payload); !bytes.Equal(got, g.frame) {
			t.Errorf("direction %d sequence %d: seal emits %x, want %x", g.dir, g.seq, got, g.frame)
		}
		if opened, err := m.open(testKeys(), g.dir, g.frame); err != nil || !bytes.Equal(opened, g.payload) {
			t.Errorf("direction %d sequence %d: golden frame not opened: %v", g.dir, g.seq, err)
		}
	}
	for i, frame := range legacy {
		for _, dir := range []byte{toServer, toClient} {
			forged := append([]byte{dir}, frame[1:]...)
			for _, f := range [][]byte{frame, forged} {
				if _, err := m.open(testKeys(), dir, f); !errors.Is(err, errIntegrity) {
					t.Errorf("legacy frame %d as direction %d: err = %v, want an integrity failure", i, dir, err)
				}
			}
		}
	}
	if got, want := m.Stats().AuthFailures, uint64(len(legacy)*4); got != want {
		t.Fatalf("auth failures = %d, want %d", got, want)
	}
}

// FuzzOpen feeds the secure module frames a hostile peer could send, under
// the fixed session the golden frames were sealed in. Whatever the bytes:
// no panic, and a frame opens, to its payload, only when it is byte-equal
// to a frame that session sealed for that direction. The same bytes as a
// payload survive seal and open.
func FuzzOpen(f *testing.F) {
	sealed, legacy := readGolden(f)
	known := make(map[string]goldenFrame, len(sealed))
	for _, g := range sealed {
		known[string(g.frame)] = g
		f.Add(g.frame)
		f.Add(g.frame[:overhead-1])
	}
	for _, frame := range legacy {
		f.Add(frame)
	}
	f.Add([]byte(nil))
	m, k := testModule(), testKeys()
	other := deriveKeys([]byte("fuzz round trip"), "binding-1")
	f.Fuzz(func(t *testing.T, frame []byte) {
		for _, dir := range []byte{toServer, toClient} {
			opened, err := m.open(k, dir, frame)
			if g, ok := known[string(frame)]; ok && g.dir == dir {
				if err != nil || !bytes.Equal(opened, g.payload) {
					t.Fatalf("golden frame refused as direction %d: %v", dir, err)
				}
			} else if err == nil {
				t.Fatalf("%d bytes no session sealed opened as direction %d", len(frame), dir)
			}
		}
		back, err := m.open(other, toClient, m.seal(other, toClient, frame))
		if err != nil || !bytes.Equal(back, frame) {
			t.Fatalf("open(seal(x)) != x for %d bytes: %v", len(frame), err)
		}
	})
}

// TestReflectedFrameRejected sends each side's frame back to it: a reply
// the server filter sealed, fed to its own Inbound, and a request the
// client module sealed, returned to it as the reply. Both sides hold the
// same key, so only the direction octet tells a frame from its reflection.
func TestReflectedFrameRejected(t *testing.T) {
	keys := deriveKeys([]byte("shared"), "b")
	contexts := giop.ServiceContextList{}.With(giop.SCQoS,
		qos.QoSTag{Characteristic: Name, BindingID: "b", Module: ModuleName}.Encode())
	server, client := testModule(), testModule()
	server.store("b", keys)
	client.store("b", keys)

	f := server.ServerFilter()
	req := &orb.ServerRequest{Operation: "echo", Contexts: contexts}
	reply, err := f.Outbound(req, giop.ReplyNoException, []byte("reply payload"))
	if err != nil {
		t.Fatal(err)
	}
	req.Args = reply
	if err := f.Inbound(req); !errors.Is(err, errIntegrity) {
		t.Fatalf("server opened its own reply: err = %v", err)
	}
	if got := server.Stats().AuthFailures; got != 1 {
		t.Fatalf("server auth failures = %d, want 1", got)
	}
	if _, err := client.open(keys, toClient, reply); err != nil {
		t.Fatalf("client refused the reply: %v", err)
	}

	var request []byte
	inv := &orb.Invocation{Operation: "echo", Args: []byte("request payload"), Contexts: contexts}
	_, err = client.Send(context.Background(), inv, func(_ context.Context, sealed *orb.Invocation) (*orb.Outcome, error) {
		request = sealed.Args
		return &orb.Outcome{Status: giop.ReplyNoException, Data: sealed.Args}, nil
	})
	if !errors.Is(err, errIntegrity) {
		t.Fatalf("client opened its own request: err = %v", err)
	}
	if got := client.Stats().AuthFailures; got != 1 {
		t.Fatalf("client auth failures = %d, want 1", got)
	}
	if _, err := server.open(keys, toServer, request); err != nil {
		t.Fatalf("server refused the request: %v", err)
	}
}

// sessions reports how many bindings currently hold session keys.
func (m *Module) sessions() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.keys)
}

func keysZero(k *sessionKeys) bool { return k.key == [32]byte{} }

// TestCloseWipesKeysInPlace holds on to the sessions a module stored and
// looks at the very same memory after Close: the old code zeroed a copy.
func TestCloseWipesKeysInPlace(t *testing.T) {
	m := testModule()
	held := []*sessionKeys{
		deriveKeys([]byte("one"), "b1"),
		deriveKeys([]byte("two"), "b2"),
	}
	for _, k := range held {
		if keysZero(k) {
			t.Fatal("derived keys are zero")
		}
		m.store(string(k.id), k)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	for i, k := range held {
		if !keysZero(k) {
			t.Errorf("session %d still holds key material after Close", i)
		}
	}
	if m.sessions() != 0 {
		t.Fatalf("%d sessions after Close", m.sessions())
	}
}

func TestDropSessionWipesKeysInPlace(t *testing.T) {
	w := newWorld(t)
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.stub.Call(context.Background(), "reveal", nil); err != nil {
		t.Fatal(err)
	}
	binding := w.stub.Binding()
	sm, _ := w.serverT.Module(ModuleName)
	held, ok := sm.(*Module).lookup(binding.ID)
	if !ok || keysZero(held) {
		t.Fatalf("server session missing or zero before drop (found %v)", ok)
	}
	e := cdr.NewEncoder(w.client.Order())
	e.WriteString(binding.ID)
	ctl := transport.NewController(w.client, w.ref)
	if _, err := ctl.ModuleCommand(context.Background(), ModuleName, "drop_session", e.Bytes()); err != nil {
		t.Fatal(err)
	}
	if !keysZero(held) {
		t.Fatal("drop_session left key material in the dropped session")
	}
	// A re-handshake replaces, and wipes, a session that is still stored.
	replaced := deriveKeys([]byte("old"), "b9")
	sm.(*Module).store("b9", replaced)
	sm.(*Module).store("b9", deriveKeys([]byte("new"), "b9"))
	if !keysZero(replaced) {
		t.Fatal("replaced session not wiped")
	}
}

// TestReleaseDropsSessionsOnBothSides: negotiate, call, release — a
// thousand times. The server module used to keep every session forever;
// now the binding's end is the session's end, on the client through
// Stub.Release and on the server through Impl.BindingDown.
func TestReleaseDropsSessionsOnBothSides(t *testing.T) {
	w := newWorld(t)
	cm, _ := w.clientT.Module(ModuleName)
	sm, _ := w.serverT.Module(ModuleName)
	ctx := context.Background()
	for i := 0; i < 1000; i++ {
		if _, err := w.stub.Negotiate(ctx, &qos.Proposal{Characteristic: Name}); err != nil {
			t.Fatal(err)
		}
		if _, err := w.stub.Call(ctx, "reveal", nil); err != nil {
			t.Fatal(err)
		}
		if c, s := cm.(*Module).sessions(), sm.(*Module).sessions(); c != 1 || s != 1 {
			t.Fatalf("cycle %d: %d client / %d server sessions while bound", i, c, s)
		}
		if err := w.stub.Release(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if c, s := cm.(*Module).sessions(), sm.(*Module).sessions(); c != 0 || s != 0 {
		t.Fatalf("%d client / %d server sessions after 1000 cycles, want 0 / 0", c, s)
	}
	if h := sm.(*Module).Stats().Handshakes; h != 1000 {
		t.Fatalf("handshakes = %d", h)
	}
}

// nonceRecorder is the secure module with the nonce of every frame it
// seals recorded: the client's requests on their way to next, the
// server's replies as Outbound returns them.
type nonceRecorder struct {
	*Module
	mu     sync.Mutex
	nonces [][nonceSize]byte
}

func (r *nonceRecorder) record(frame []byte) {
	r.mu.Lock()
	r.nonces = append(r.nonces, [nonceSize]byte(frame[:nonceSize]))
	r.mu.Unlock()
}

func (r *nonceRecorder) Send(ctx context.Context, inv *orb.Invocation, next transport.Next) (*orb.Outcome, error) {
	return r.Module.Send(ctx, inv, func(ctx context.Context, sealed *orb.Invocation) (*orb.Outcome, error) {
		r.record(sealed.Args)
		return next(ctx, sealed)
	})
}

func (r *nonceRecorder) ServerFilter() orb.IncomingFilter {
	return recordingFilter{r.Module.ServerFilter(), r}
}

type recordingFilter struct {
	orb.IncomingFilter
	r *nonceRecorder
}

func (f recordingFilter) Outbound(req *orb.ServerRequest, status giop.ReplyStatus, body []byte) ([]byte, error) {
	frame, err := f.IncomingFilter.Outbound(req, status, body)
	if err == nil && status == giop.ReplyNoException {
		f.r.record(frame)
	}
	return frame, err
}

// TestConcurrentCallersNeverReuseANonce hammers one binding's session from
// 8 goroutines, first call included (one handshake must serve them all).
// Every reply is checked against its request, and every nonce either side
// sealed under the session's one key is recorded: none may repeat, across
// callers or across the two directions. Under -race it is also the proof
// that callers share the AEAD and the counter without a lock.
func TestConcurrentCallersNeverReuseANonce(t *testing.T) {
	const callers, calls = 8, 2000
	w := newWrappedWorld(t, func(m *Module) transport.Module { return &nonceRecorder{Module: m} })
	if _, err := w.stub.Negotiate(context.Background(), &qos.Proposal{Characteristic: Name}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				phrase := strings.Repeat(fmt.Sprintf("caller %d call %d ", g, i), 1+(g+i)%16)
				e := cdr.NewEncoder(w.client.Order())
				e.WriteString(phrase)
				d, err := w.stub.Call(context.Background(), "echo", e.Bytes())
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				if got, err := d.ReadString(); err != nil || got != phrase {
					t.Errorf("caller %d call %d: reply differs from request (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cm, _ := w.clientT.Module(ModuleName)
	sm, _ := w.serverT.Module(ModuleName)
	client, server := cm.(*nonceRecorder), sm.(*nonceRecorder)
	cs, ss := client.Stats(), server.Stats()
	if cs.Handshakes != 1 || ss.Handshakes != 1 {
		t.Fatalf("handshakes: client %d, server %d, want one session for all callers", cs.Handshakes, ss.Handshakes)
	}
	if cs.Sealed != callers*calls || cs.Opened != callers*calls || ss.AuthFailures+cs.AuthFailures != 0 {
		t.Fatalf("client %+v server %+v", cs, ss)
	}
	if len(client.nonces) != callers*calls || len(server.nonces) != callers*calls {
		t.Fatalf("recorded %d client and %d server nonces, want %d each", len(client.nonces), len(server.nonces), callers*calls)
	}
	seen := make(map[[nonceSize]byte]bool, 2*callers*calls)
	for _, n := range append(client.nonces, server.nonces...) {
		if seen[n] {
			t.Fatalf("nonce %x sealed twice under one key", n)
		}
		seen[n] = true
	}
}
