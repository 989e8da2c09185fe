package netsim

import (
	"bytes"
	"errors"
	"io"
	"net"
	"os"
	"sync"
	"testing"
	"time"
)

// pair dials srv from client and returns both ends.
func pair(t *testing.T, n *Network) (client, server net.Conn) {
	t.Helper()
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	done := make(chan struct{})
	go func() {
		defer close(done)
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		server = c
	}()
	client, err = n.Dial("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	<-done
	if server == nil {
		t.Fatal("no server conn")
	}
	t.Cleanup(func() { client.Close() })
	return client, server
}

func TestBasicExchange(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)

	msgs := []string{"hello", "quality", "of", "service"}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, m := range msgs {
			if _, err := client.Write([]byte(m)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var got bytes.Buffer
	buf := make([]byte, 64)
	want := 0
	for _, m := range msgs {
		want += len(m)
	}
	for got.Len() < want {
		k, err := server.Read(buf)
		if err != nil {
			t.Fatal(err)
		}
		got.Write(buf[:k])
	}
	wg.Wait()
	if got.String() != "helloqualityofservice" {
		t.Fatalf("received %q", got.String())
	}
}

func TestBidirectional(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	if _, err := client.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Write([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(client, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "pong" {
		t.Fatalf("got %q", buf)
	}
}

func TestCloseGivesEOF(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	if _, err := client.Write([]byte("bye")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	// Server must still drain the pending segment, then see EOF.
	buf := make([]byte, 8)
	k, err := server.Read(buf)
	if err != nil || string(buf[:k]) != "bye" {
		t.Fatalf("read = %q, %v", buf[:k], err)
	}
	if _, err := server.Read(buf); err != io.EOF {
		t.Fatalf("err = %v, want EOF", err)
	}
	if _, err := server.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("write after close err = %v", err)
	}
}

func TestLatencyIsApplied(t *testing.T) {
	n := NewNetwork()
	n.SetDefaultLink(Link{Latency: 30 * time.Millisecond})
	client, server := pair(t, n)

	start := time.Now()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("latency not applied: %v", elapsed)
	}
}

func TestBandwidthShaping(t *testing.T) {
	n := NewNetwork()
	// 1 Mbit/s: 12500 bytes take 100 ms to serialise.
	n.SetDefaultLink(Link{BitsPerSec: 1_000_000})
	client, server := pair(t, n)

	go func() {
		buf := make([]byte, 32*1024)
		for {
			if _, err := server.Read(buf); err != nil {
				return
			}
		}
	}()
	start := time.Now()
	if _, err := client.Write(make([]byte, 12500)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("bandwidth not applied: wrote 12500 B in %v", elapsed)
	}
}

func TestTimeScaleCompressesDelays(t *testing.T) {
	n := NewNetwork()
	n.SetTimeScale(0.1)
	n.SetDefaultLink(Link{Latency: 300 * time.Millisecond})
	client, server := pair(t, n)
	start := time.Now()
	if _, err := client.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := io.ReadFull(server, buf); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 200*time.Millisecond {
		t.Fatalf("time scale not applied: %v", elapsed)
	}
	if elapsed < 20*time.Millisecond {
		t.Fatalf("scaled latency missing entirely: %v", elapsed)
	}
}

func TestPartitionSeversAndRefuses(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)

	n.Partition("client", "srv")
	buf := make([]byte, 1)
	if _, err := server.Read(buf); !errors.Is(err, errSevered) {
		t.Fatalf("read err = %v, want severed", err)
	}
	if _, err := client.Write([]byte("x")); !errors.Is(err, errSevered) {
		t.Fatalf("write err = %v, want severed", err)
	}
	if _, err := n.Dial("srv:1"); !errors.Is(err, errRefused) {
		t.Fatalf("dial err = %v, want refused", err)
	}

	n.Heal("client", "srv")
	c2, err := n.Dial("srv:1")
	if err != nil {
		t.Fatalf("dial after heal: %v", err)
	}
	c2.Close()
}

func TestCrashAndRestart(t *testing.T) {
	n := NewNetwork()
	client, _ := pair(t, n)

	n.Crash("srv")
	if _, err := client.Write([]byte("x")); !errors.Is(err, errSevered) {
		t.Fatalf("write to crashed host err = %v", err)
	}
	if _, err := n.Dial("srv:1"); !errors.Is(err, errRefused) {
		t.Fatalf("dial crashed err = %v", err)
	}
	// Rebinding while crashed fails.
	if _, err := n.Listen("srv:2"); err == nil {
		t.Fatal("listen on crashed host succeeded")
	}

	n.Restart("srv")
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatalf("listen after restart: %v", err)
	}
	defer l.Close()
	acceptDone := make(chan struct{})
	go func() {
		defer close(acceptDone)
		if c, err := l.Accept(); err == nil {
			c.Close()
		}
	}()
	c, err := n.Dial("srv:1")
	if err != nil {
		t.Fatalf("dial after restart: %v", err)
	}
	c.Close()
	<-acceptDone
}

func TestDialErrors(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Dial("nowhere:9"); !errors.Is(err, errRefused) {
		t.Fatalf("err = %v", err)
	}
	if _, err := n.Listen("not-an-addr"); err == nil {
		t.Fatal("bad listen addr accepted")
	}
	if _, err := n.Listen("h:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("h:1"); err == nil {
		t.Fatal("double bind accepted")
	}
}

func TestListenerClose(t *testing.T) {
	n := NewNetwork()
	l, err := n.Listen("h:1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	if err := <-done; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("accept err = %v", err)
	}
	if _, err := n.Dial("h:1"); !errors.Is(err, errRefused) {
		t.Fatalf("dial closed listener err = %v", err)
	}
	// Address can be reused after close.
	l2, err := n.Listen("h:1")
	if err != nil {
		t.Fatalf("rebind: %v", err)
	}
	l2.Close()
}

func TestReadDeadline(t *testing.T) {
	n := NewNetwork()
	client, _ := pair(t, n)
	if err := client.SetReadDeadline(time.Now().Add(20 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 1)
	if _, err := client.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// Clearing the deadline allows reads again.
	if err := client.SetReadDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
}

func TestHostTransportEnforcesIdentity(t *testing.T) {
	n := NewNetwork()
	h := n.Host("alpha")
	if _, err := h.Listen("beta:1"); err == nil {
		t.Fatal("host alpha bound beta's address")
	}
	l, err := h.Listen("alpha:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			_, _ = io.Copy(c, c) // echo until the conn dies
		}
	}()
	beta := n.Host("beta")
	c, err := beta.Dial("alpha:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("id")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	// Partitioning beta specifically must hit this conn.
	n.Partition("alpha", "beta")
	if _, err := c.Write([]byte("x")); !errors.Is(err, errSevered) {
		t.Fatalf("err = %v", err)
	}
}

func TestTCPTransportLoopback(t *testing.T) {
	tr := &TCP{DialTimeout: time.Second}
	l, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		_, _ = io.Copy(c, c)
	}()
	c, err := tr.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Write([]byte("tcp")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 3)
	if _, err := io.ReadFull(c, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "tcp" {
		t.Fatalf("echo = %q", buf)
	}
}

func TestConcurrentConnections(t *testing.T) {
	n := NewNetwork()
	l, err := n.Listen("srv:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				_, _ = io.Copy(c, c)
			}(c)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c, err := n.Dial("srv:1")
			if err != nil {
				t.Error(err)
				return
			}
			defer c.Close()
			msg := []byte{byte(i), byte(i + 1)}
			if _, err := c.Write(msg); err != nil {
				t.Error(err)
				return
			}
			buf := make([]byte, 2)
			if _, err := io.ReadFull(c, buf); err != nil {
				t.Error(err)
				return
			}
			if !bytes.Equal(buf, msg) {
				t.Errorf("echo = %v, want %v", buf, msg)
			}
		}(i)
	}
	wg.Wait()
}
