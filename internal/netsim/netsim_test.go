package netsim

import (
	"bytes"
	"errors"
	"sync"
	"testing"
	"time"

	"dmps/internal/transport"
)

func pair(t *testing.T, n *Net) (client, server transport.Conn, cleanup func()) {
	t.Helper()
	l, err := n.Listen("server:1")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	cc, err := n.DialFrom("alice", "server:1")
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	sc, err := l.Accept()
	if err != nil {
		t.Fatalf("Accept: %v", err)
	}
	return cc, sc, func() {
		cc.Close()
		sc.Close()
		l.Close()
	}
}

func TestRoundTrip(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	if err := client.Send([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte("ping")) {
		t.Errorf("got %q", got)
	}
	if err := server.Send([]byte("pong")); err != nil {
		t.Fatal(err)
	}
	if got, _ := client.Recv(); string(got) != "pong" {
		t.Errorf("reverse got %q", got)
	}
}

func TestHost(t *testing.T) {
	if Host("a:1") != "a" || Host("plain") != "plain" || Host("x:y:z") != "x" {
		t.Error("Host parsing")
	}
}

// TestPayloadSharedUncopied pins the transport's zero-copy contract: a
// buffer handed to Send is delivered as-is (the mailbox does not copy),
// which is why callers must treat sent buffers as immutable.
func TestPayloadSharedUncopied(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	buf := []byte("immutable")
	if err := client.Send(buf); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "immutable" {
		t.Errorf("payload corrupted: %q", got)
	}
	if len(got) == len(buf) && &got[0] != &buf[0] {
		t.Errorf("payload was copied: delivery should share the sent buffer")
	}
}

func TestDelayApplied(t *testing.T) {
	n := New(1)
	n.SetLink("alice", "server", LinkConfig{Delay: 30 * time.Millisecond})
	client, server, cleanup := pair(t, n)
	defer cleanup()
	start := time.Now()
	if err := client.Send([]byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, err := server.Recv(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Errorf("delivered in %v, want >= ~30ms", elapsed)
	}
}

func TestFIFOUnderJitter(t *testing.T) {
	n := New(42)
	n.SetLink("alice", "server", LinkConfig{Delay: time.Millisecond, Jitter: 5 * time.Millisecond})
	client, server, cleanup := pair(t, n)
	defer cleanup()
	const count = 100
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < count; i++ {
			if err := client.Send([]byte{byte(i)}); err != nil {
				t.Errorf("Send: %v", err)
				return
			}
		}
	}()
	for i := 0; i < count; i++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("Recv %d: %v", i, err)
		}
		if got[0] != byte(i) {
			t.Fatalf("reordered at %d: got %d", i, got[0])
		}
	}
	wg.Wait()
}

func TestLossDropsSilently(t *testing.T) {
	n := New(7)
	n.SetLink("alice", "server", LinkConfig{Loss: 1.0})
	client, server, cleanup := pair(t, n)
	defer cleanup()
	if err := client.Send([]byte("vanishes")); err != nil {
		t.Fatalf("Send over lossy link must not error: %v", err)
	}
	// Nothing should arrive; close to unblock.
	go func() {
		time.Sleep(20 * time.Millisecond)
		client.Close()
	}()
	if _, err := server.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Recv = %v, want ErrClosed after silence", err)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n := New(7)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	n.Partition("alice", "server", true)
	if err := client.Send([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	n.Partition("alice", "server", false)
	if err := client.Send([]byte("arrives")); err != nil {
		t.Fatal(err)
	}
	got, err := server.Recv()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "arrives" {
		t.Errorf("got %q, partitioned message should be gone", got)
	}
}

func TestCloseDrainsThenErrClosed(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	if err := client.Send([]byte("last words")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	got, err := server.Recv()
	if err != nil {
		t.Fatalf("in-flight message should drain: %v", err)
	}
	if string(got) != "last words" {
		t.Errorf("got %q", got)
	}
	if _, err := server.Recv(); !errors.Is(err, transport.ErrClosed) {
		t.Errorf("after drain: %v", err)
	}
}

func TestDropSimulatesCrash(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	if !Drop(client) {
		t.Fatal("Drop should recognize netsim conns")
	}
	if err := client.Send([]byte("into the void")); err != nil {
		t.Fatalf("crashed sender errors: %v", err)
	}
	// The peer hears nothing — no close signal either.
	done := make(chan struct{})
	go func() {
		server.Recv()
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("peer should not be notified of a crash")
	case <-time.After(30 * time.Millisecond):
	}
	server.Close() // cleanup unblocks the goroutine
	<-done
}

func TestDialUnknownAddress(t *testing.T) {
	n := New(1)
	if _, err := n.Dial("nowhere:1"); !errors.Is(err, transport.ErrUnknownAddress) {
		t.Errorf("err = %v", err)
	}
}

func TestListenDuplicateAddress(t *testing.T) {
	n := New(1)
	if _, err := n.Listen("a:1"); err != nil {
		t.Fatal(err)
	}
	if _, err := n.Listen("a:1"); err == nil {
		t.Error("duplicate listen should fail")
	}
}

func TestListenerCloseUnblocksAcceptAndFreesAddr(t *testing.T) {
	n := New(1)
	l, err := n.Listen("a:1")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	if err := <-done; !errors.Is(err, transport.ErrClosed) {
		t.Errorf("Accept = %v", err)
	}
	if _, err := n.Listen("a:1"); err != nil {
		t.Errorf("address should be free after close: %v", err)
	}
}

// TestDialRacesListenerClose dials a listener from several goroutines
// while it closes: each dial must either connect or fail with
// ErrUnknownAddress — never send on the closed backlog (a panic, and a
// data race under -race).
func TestDialRacesListenerClose(t *testing.T) {
	n := New(1)
	for round := 0; round < 200; round++ {
		l, err := n.Listen("a:1")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for d := 0; d < 4; d++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 4; i++ {
					c, err := n.Dial("a:1")
					if err != nil {
						if !errors.Is(err, transport.ErrUnknownAddress) {
							t.Errorf("Dial = %v", err)
						}
						continue
					}
					c.Close()
				}
			}()
		}
		l.Close()
		wg.Wait()
	}
}

func TestDefaultLinkApplies(t *testing.T) {
	n := New(3)
	n.SetDefaultLink(LinkConfig{Delay: 20 * time.Millisecond})
	client, server, cleanup := pair(t, n)
	defer cleanup()
	start := time.Now()
	client.Send([]byte("x"))
	server.Recv()
	if time.Since(start) < 15*time.Millisecond {
		t.Error("default link delay not applied")
	}
}

func TestSeededJitterDeterministic(t *testing.T) {
	run := func(seed int64) time.Duration {
		n := New(seed)
		n.SetLink("alice", "server", LinkConfig{Delay: time.Millisecond, Jitter: 10 * time.Millisecond})
		client, server, cleanup := pair(t, n)
		defer cleanup()
		start := time.Now()
		client.Send([]byte("x"))
		server.Recv()
		return time.Since(start)
	}
	a, b := run(99), run(99)
	diff := a - b
	if diff < 0 {
		diff = -diff
	}
	if diff > 8*time.Millisecond {
		t.Errorf("same seed, very different delays: %v vs %v", a, b)
	}
}

func TestAddrs(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	if client.RemoteAddr() != "server:1" {
		t.Errorf("client remote = %q", client.RemoteAddr())
	}
	if server.LocalAddr() != "server:1" {
		t.Errorf("server local = %q", server.LocalAddr())
	}
	if Host(client.LocalAddr()) != "alice" {
		t.Errorf("client local = %q", client.LocalAddr())
	}
}

func TestStallBlocksSendUntilReleased(t *testing.T) {
	n := New(1)
	client, server, cleanup := pair(t, n)
	defer cleanup()
	n.Stall("alice", "server", true)
	sent := make(chan error, 1)
	go func() {
		sent <- client.Send([]byte("held"))
	}()
	select {
	case err := <-sent:
		t.Fatalf("Send returned %v while stalled", err)
	case <-time.After(30 * time.Millisecond):
	}
	n.Stall("alice", "server", false)
	select {
	case err := <-sent:
		if err != nil {
			t.Fatalf("Send after release: %v", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send still blocked after release")
	}
	got, err := server.Recv()
	if err != nil || !bytes.Equal(got, []byte("held")) {
		t.Fatalf("Recv = %q, %v", got, err)
	}
}

func TestStallReleasedByClose(t *testing.T) {
	n := New(1)
	client, _, cleanup := pair(t, n)
	defer cleanup()
	n.Stall("alice", "server", true)
	defer n.Stall("alice", "server", false)
	sent := make(chan error, 1)
	go func() {
		sent <- client.Send([]byte("doomed"))
	}()
	time.Sleep(10 * time.Millisecond)
	client.Close()
	select {
	case err := <-sent:
		if !errors.Is(err, transport.ErrClosed) {
			t.Fatalf("Send on closed stalled conn = %v, want ErrClosed", err)
		}
	case <-time.After(time.Second):
		t.Fatal("Send still blocked after close")
	}
}
