package encryption

import (
	"bufio"
	"bytes"
	"context"
	"crypto/aes"
	"encoding/hex"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/qos"
	"maqs/internal/qos/transport"
)

// TestGoldenFrames pins the wire format across the cipher/MAC-reuse
// rewrite. The frames in testdata were sealed (random IV) by the code that
// built aes.NewCipher and hmac.New per payload; the prepared session must
// open them, and given the same IV must produce the same bytes — on a
// session whose MAC state has already been used for other traffic.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, k := testModule(), testKeys()
	if _, err := m.seal(k, []byte("unrelated earlier traffic")); err != nil {
		t.Fatal(err)
	}
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("bad golden line %q", line)
		}
		var payload []byte
		if fields[0] != "-" {
			if payload, err = hex.DecodeString(fields[0]); err != nil {
				t.Fatal(err)
			}
		}
		want, err := hex.DecodeString(fields[1])
		if err != nil {
			t.Fatal(err)
		}
		opened, err := m.open(k, want)
		if err != nil || !bytes.Equal(opened, payload) {
			t.Errorf("parent frame for %q not opened: %v", payload, err)
		}
		got := make([]byte, len(want))
		copy(got, want[:aes.BlockSize]) // the parent's IV
		k.protect(got, payload)
		if !bytes.Equal(got, want) {
			t.Errorf("payload %q: protect emits %x, parent emitted %x", payload, got, want)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked != 3 {
		t.Fatalf("checked %d golden frames, want 3", checked)
	}
}

// sessions reports how many bindings currently hold session keys.
func (m *Module) sessions() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return len(m.keys)
}

func keysZero(k *sessionKeys) bool {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.enc == [32]byte{} && k.mac == [32]byte{}
}

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

// TestConcurrentCallersNeverShareMACState hammers one binding's session
// from 8 goroutines, first call included (one handshake must serve them
// all). Every reply is checked against its request: an HMAC state shared
// by two callers fails the integrity check or returns another caller's
// payload, and is a data race under -race.
func TestConcurrentCallersNeverShareMACState(t *testing.T) {
	const callers, calls = 8, 2000
	w := newWorld(t)
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
	cs, ss := cm.(*Module).Stats(), sm.(*Module).Stats()
	if cs.Handshakes != 1 || ss.Handshakes != 1 {
		t.Fatalf("handshakes: client %d, server %d, want one session for all callers", cs.Handshakes, ss.Handshakes)
	}
	if cs.Sealed != callers*calls || cs.Opened != callers*calls || ss.AuthFailures+cs.AuthFailures != 0 {
		t.Fatalf("client %+v server %+v", cs, ss)
	}
}
