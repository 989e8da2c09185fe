package netsim

import (
	"bytes"
	"errors"
	"os"
	"testing"
	"time"
)

func TestFaultDropBlackholesSegment(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	inj := n.InstallFaults(FaultPlan{Rules: []FaultRule{
		{Kind: FaultDrop, Src: "client", Dst: "srv"},
	}})

	if _, err := client.Write([]byte("lost")); err != nil {
		t.Fatalf("dropped write should still succeed for the writer: %v", err)
	}
	server.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	buf := make([]byte, 16)
	if _, err := server.Read(buf); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("blackholed segment was delivered (err=%v)", err)
	}
	if s := inj.Stats(); s.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", s.Dropped)
	}

	// The reverse direction is unaffected.
	if _, err := server.Write([]byte("reply")); err != nil {
		t.Fatal(err)
	}
	client.SetReadDeadline(time.Now().Add(time.Second))
	nr, err := client.Read(buf)
	if err != nil || string(buf[:nr]) != "reply" {
		t.Fatalf("reverse direction broken: %q, %v", buf[:nr], err)
	}
}

func TestFaultCorruptFlipsByte(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	inj := n.InstallFaults(FaultPlan{Seed: 7, Rules: []FaultRule{
		{Kind: FaultCorrupt, Src: "client", Dst: "srv"},
	}})

	payload := []byte("pristine bytes")
	if _, err := client.Write(payload); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, len(payload))
	server.SetReadDeadline(time.Now().Add(time.Second))
	nr, err := server.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(buf[:nr], payload) {
		t.Fatal("corrupt rule delivered the payload intact")
	}
	if string(payload) != "pristine bytes" {
		t.Fatal("corruption mutated the caller's buffer, not the in-flight copy")
	}
	if s := inj.Stats(); s.Corrupted != 1 {
		t.Fatalf("Corrupted = %d, want 1", s.Corrupted)
	}
}

func TestFaultDelayAddsLatency(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	inj := n.InstallFaults(FaultPlan{Seed: 3, Rules: []FaultRule{
		{Kind: FaultDelay, Src: "client", Dst: "srv", Delay: 60 * time.Millisecond, Jitter: 10 * time.Millisecond},
	}})

	start := time.Now()
	if _, err := client.Write([]byte("slow")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	server.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := server.Read(buf); err != nil {
		t.Fatal(err)
	}
	if rtt := time.Since(start); rtt < 60*time.Millisecond {
		t.Fatalf("delayed segment arrived after only %v", rtt)
	}
	if s := inj.Stats(); s.Delayed != 1 {
		t.Fatalf("Delayed = %d, want 1", s.Delayed)
	}
}

func TestFaultResetSeversConn(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	inj := n.InstallFaults(FaultPlan{Rules: []FaultRule{
		{Kind: FaultReset, Src: "client", Dst: "srv"},
	}})

	if _, err := client.Write([]byte("boom")); !errors.Is(err, errSevered) {
		t.Fatalf("reset write err = %v, want errSevered", err)
	}
	buf := make([]byte, 8)
	server.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := server.Read(buf); !errors.Is(err, errSevered) {
		t.Fatalf("peer read err = %v, want errSevered", err)
	}
	if s := inj.Stats(); s.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", s.Resets)
	}
}

func TestFaultPartitionWindow(t *testing.T) {
	n := NewNetwork()
	if _, err := n.Listen("srv:1"); err != nil {
		t.Fatal(err)
	}
	inj := n.InstallFaults(FaultPlan{Rules: []FaultRule{
		{Kind: FaultPartition, Src: "client", Dst: "srv", Until: 80 * time.Millisecond},
	}})

	if _, err := n.Dial("srv:1"); !errors.Is(err, errRefused) {
		t.Fatalf("dial inside partition window err = %v, want errRefused", err)
	}
	// Partition matches both orientations of the pair.
	if _, err := n.DialFrom("srv", "client:1"); !errors.Is(err, errRefused) {
		t.Fatalf("reverse dial inside window err = %v, want errRefused", err)
	}
	if s := inj.Stats(); s.RefusedDials != 2 {
		t.Fatalf("RefusedDials = %d, want 2", s.RefusedDials)
	}

	time.Sleep(100 * time.Millisecond)
	c, err := n.Dial("srv:1")
	if err != nil {
		t.Fatalf("dial after window healed: %v", err)
	}
	if _, err := c.Write([]byte("ok")); err != nil {
		t.Fatalf("write after window healed: %v", err)
	}
	c.Close()
}

func TestFaultPartitionSeversActiveConn(t *testing.T) {
	n := NewNetwork()
	client, _ := pair(t, n)
	inj := n.InstallFaults(FaultPlan{Rules: []FaultRule{
		{Kind: FaultPartition, Src: "client", Dst: "srv"},
	}})
	if _, err := client.Write([]byte("cut")); !errors.Is(err, errSevered) {
		t.Fatalf("write during partition err = %v, want errSevered", err)
	}
	if s := inj.Stats(); s.Partitioned != 1 {
		t.Fatalf("Partitioned = %d, want 1", s.Partitioned)
	}
}

func TestFaultProbabilityDeterministic(t *testing.T) {
	outcomes := func(seed int64) []bool {
		n := NewNetwork()
		client, server := pair(t, n)
		n.InstallFaults(FaultPlan{Seed: seed, Rules: []FaultRule{
			{Kind: FaultDrop, Probability: 0.5},
		}})
		var got []bool
		buf := make([]byte, 4)
		for i := 0; i < 32; i++ {
			if _, err := client.Write([]byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
			server.SetReadDeadline(time.Now().Add(20 * time.Millisecond))
			_, err := server.Read(buf)
			got = append(got, err == nil)
		}
		return got
	}
	a, b := outcomes(42), outcomes(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at write %d", i)
		}
	}
	delivered := 0
	for _, ok := range a {
		if ok {
			delivered++
		}
	}
	if delivered == 0 || delivered == len(a) {
		t.Fatalf("probability 0.5 delivered %d/%d — not probabilistic", delivered, len(a))
	}
}

func TestFaultWindowNotYetActive(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	n.InstallFaults(FaultPlan{Rules: []FaultRule{
		{Kind: FaultDrop, From: time.Hour},
	}})
	if _, err := client.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	server.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("rule with future window dropped traffic: %v", err)
	}
}

func TestClearFaults(t *testing.T) {
	n := NewNetwork()
	client, server := pair(t, n)
	n.InstallFaults(FaultPlan{Rules: []FaultRule{{Kind: FaultDrop}}})
	n.ClearFaults()
	if _, err := client.Write([]byte("ok")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	server.SetReadDeadline(time.Now().Add(time.Second))
	if _, err := server.Read(buf); err != nil {
		t.Fatalf("traffic still faulted after ClearFaults: %v", err)
	}
}
