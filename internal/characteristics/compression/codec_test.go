package compression

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"

	"maqs/internal/cdr"
	"maqs/internal/qos"
)

// goldenPayloads are the inputs behind testdata/golden_frames.txt.
func goldenPayloads() map[string][]byte {
	mixed := make([]byte, 1500)
	for i := range mixed {
		mixed[i] = byte((i*7 + i/13) % 251)
	}
	noise := make([]byte, 256)
	x := uint32(2463534242)
	for i := range noise {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		noise[i] = byte(x)
	}
	return map[string][]byte{
		"text4k": bytes.Repeat([]byte("quality of service for everyone "), 128),
		"tiny":   []byte("tiny"),
		"mixed":  mixed,
		"noise":  noise,
		"empty":  {},
	}
}

// TestGoldenFrames pins the wire format across the codec-reuse rewrite: a
// module whose writer has already been used (so every frame below comes
// out of a Reset writer, not a fresh one) must emit byte for byte what the
// per-call flate.NewWriter code emitted, and accept those frames.
func TestGoldenFrames(t *testing.T) {
	f, err := os.Open("testdata/golden_frames.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	payloads := goldenPayloads()
	modules := map[string]*Module{}
	checked := 0
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 3 {
			t.Fatalf("bad golden line %q", line)
		}
		level, name := fields[0], fields[1]
		want, err := hex.DecodeString(fields[2])
		if err != nil {
			t.Fatal(err)
		}
		m := modules[level]
		if m == nil {
			m = newModule(t, map[string]string{"level": level})
			// Dirty the pooled writer and reader with unrelated data.
			junk, err := m.wrap(bytes.Repeat([]byte("unrelated earlier traffic "), 99))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := m.unwrap(junk); err != nil {
				t.Fatal(err)
			}
			modules[level] = m
		}
		got, err := m.wrap(payloads[name])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("level %s %s: wrap emits %d bytes %x..., parent emitted %d bytes %x...",
				level, name, len(got), got[:min(len(got), 16)], len(want), want[:min(len(want), 16)])
		}
		back, err := m.unwrap(want)
		if err != nil || !bytes.Equal(back, payloads[name]) {
			t.Errorf("level %s %s: parent frame not accepted: %v", level, name, err)
		}
		checked++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if checked != 15 {
		t.Fatalf("checked %d golden frames, want 15", checked)
	}
}

// deflateFrame builds a deflate frame header claiming origLen over body.
func deflateFrame(origLen uint32, body []byte) []byte {
	p := make([]byte, 5, 5+len(body))
	p[0] = frameDeflate
	putULongBE(p[1:5], origLen)
	return append(p, body...)
}

// TestDecompressionBombRefused: the declared length is the peer's claim.
// A 9-byte frame claiming 64 MiB used to cost a 64 MiB allocation before a
// single byte was inflated; now the claim is checked against what the body
// could possibly inflate to.
func TestDecompressionBombRefused(t *testing.T) {
	m := newModule(t, nil)
	bomb := deflateFrame(maxOrigLen, []byte{0x03, 0x00, 0x00, 0x00})
	if len(bomb) != 9 {
		t.Fatalf("bomb is %d bytes", len(bomb))
	}
	// Bytes, not objects: an object count moves under the race detector,
	// where sync.Pool drops items at random; a payload-sized allocation
	// would show as megabytes either way.
	const refusals = 10
	var err error
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range refusals {
		_, err = m.unwrap(bomb)
	}
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "impossible") {
		t.Fatalf("bomb: err = %v", err)
	}
	if perRefusal := (after.TotalAlloc - before.TotalAlloc) / refusals; perRefusal > 64<<10 {
		t.Fatalf("refusing the bomb allocates %d bytes per refusal; nothing payload-sized (the claim is %d) may be", perRefusal, maxOrigLen)
	}
	// The most expansive honest input — one byte repeated — still passes,
	// including right at the frame's own ratio.
	zeros := make([]byte, 1<<20)
	frame, err := m.wrap(zeros)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := len(zeros) / (len(frame) - 5); ratio < 900 {
		t.Fatalf("zeros only compress %d:1; the test wants a near-worst case", ratio)
	}
	back, err := m.unwrap(frame)
	if err != nil || !bytes.Equal(back, zeros) {
		t.Fatalf("1 MiB of zeros refused: %v", err)
	}
	// A claim just past the bound is refused whatever the body says.
	body := frame[5:]
	if _, err := m.unwrap(deflateFrame(uint32(len(body)*maxDeflateRatio+1), body)); err == nil {
		t.Fatal("over-ratio claim accepted")
	}
}

// TestStatsCountBothFrameTypes: the atomic counters add up to the traffic.
func TestStatsCountBothFrameTypes(t *testing.T) {
	m := newModule(t, nil)
	for _, name := range []string{"text4k", "tiny", "noise"} {
		if _, err := m.wrap(goldenPayloads()[name]); err != nil {
			t.Fatal(err)
		}
	}
	s := m.Stats()
	if s.Compressed != 1 || s.Stored != 2 || s.RawBytes != 4096+4+256 || s.WireBytes >= s.RawBytes {
		t.Fatalf("stats = %+v", s)
	}
}

// TestConcurrentCallersNeverShareACodec hammers one flate module on each
// side of one binding from 8 goroutines. Every reply is checked against
// its own request, so a writer or reader handed to two callers at once —
// or one returned to the pool while still in use — shows up as a wrong
// payload, and under -race as a data race.
func TestConcurrentCallersNeverShareACodec(t *testing.T) {
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
				// Sizes straddle min_size: a quarter of the calls, at
				// different phases per caller, go through the codecs (the
				// race detector makes each 640 KB writer reset expensive).
				line := fmt.Sprintf("caller %d call %d says quality of service ", g, i)
				repeat := 1
				if (g+i)%4 == 0 {
					repeat = 4 + i%20
				}
				payload := bytes.Repeat([]byte(line), repeat)
				e := cdr.NewEncoder(w.client.Order())
				e.WriteOctets(payload)
				d, err := w.stub.Call(context.Background(), "echo", e.Bytes())
				if err != nil {
					t.Errorf("caller %d call %d: %v", g, i, err)
					return
				}
				got, err := d.ReadOctets()
				if err != nil || !bytes.Equal(got, payload) {
					t.Errorf("caller %d call %d: reply differs from request (%v)", g, i, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	cs, ss := w.clientModule.Stats(), w.serverModule.Stats()
	if total := cs.Compressed + cs.Stored; total != callers*calls {
		t.Fatalf("client wrapped %d payloads, want %d", total, callers*calls)
	}
	if cs.Compressed == 0 || cs.Stored == 0 {
		t.Fatalf("hammer did not mix frame types: %+v", cs)
	}
	if ss.RawBytes != cs.RawBytes {
		t.Fatalf("server echoed %d raw bytes, client sent %d", ss.RawBytes, cs.RawBytes)
	}
}

// FuzzUnwrap feeds the module frames a hostile peer could send. Whatever
// the bytes: no panic, memory proportional to the input, and a frame that
// is accepted re-wraps to a frame that unwraps to the same payload.
func FuzzUnwrap(f *testing.F) {
	seedModule, err := NewModule(nil, map[string]string{"min_size": "0"})
	if err != nil {
		f.Fatal(err)
	}
	for _, p := range goldenPayloads() {
		frame, err := seedModule.(*Module).wrap(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(frame)
		f.Add(frame[:len(frame)/2]) // truncated
		if len(frame) > 6 {
			flipped := append([]byte(nil), frame...)
			flipped[len(flipped)/2] ^= 0x10
			f.Add(flipped)
			longer := append([]byte(nil), frame...)
			longer[4]++ // claims one byte more than the stream holds
			f.Add(longer)
		}
	}
	f.Add(deflateFrame(maxOrigLen, []byte{0x03, 0x00, 0x00, 0x00}))
	f.Add([]byte{frameDeflate, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add([]byte{7, 0, 0, 0, 0})

	m := seedModule.(*Module)
	f.Fuzz(func(t *testing.T, frame []byte) {
		out, err := m.unwrap(frame)
		if err != nil {
			return
		}
		if len(frame) >= 5 && frame[0] == frameDeflate && len(out) > (len(frame)-5)*maxDeflateRatio {
			t.Fatalf("%d-byte frame inflated to %d bytes", len(frame), len(out))
		}
		again, err := m.wrap(out)
		if err != nil {
			t.Fatalf("re-wrapping an accepted payload: %v", err)
		}
		back, err := m.unwrap(again)
		if err != nil || !bytes.Equal(back, out) {
			t.Fatalf("unwrap(wrap(x)) != x for %d bytes: %v", len(out), err)
		}
	})
}
