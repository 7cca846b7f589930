package cluster_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/floor"
	"dmps/internal/protocol"
	"dmps/internal/server"
	"dmps/internal/transport"
)

// TestCrossHomeClientsTCPE2E runs two clients homed on DIFFERENT nodes
// in the same group over a real TCP cluster (1 router + 2 nodes) and
// requires full convergence: floor grants observed across homes, chat
// in both directions, board backfill for a late joiner homed on each
// node, and reconnect-resume with backfill on both sides. The group is
// owned by node 1, so the node-0-homed client's traffic takes the
// router's second upstream.
func TestCrossHomeClientsTCPE2E(t *testing.T) {
	_, nodeAddrs, router := startTCPCluster(t)
	dial := func(name string) *client.Client {
		t.Helper()
		c, err := client.Dial(client.Config{
			Network: transport.TCP{}, Addr: router.Addr(),
			Name: name, Role: "participant", Priority: 5,
		})
		if err != nil {
			t.Fatalf("dial %s: %v", name, err)
		}
		t.Cleanup(c.Close)
		return c
	}
	near := dial(pickKeyFor(t, nodeAddrs, "home-near", 0))
	far := dial(pickKeyFor(t, nodeAddrs, "home-far", 1))
	group := pickKeyFor(t, nodeAddrs, "home-class", 1)
	for _, c := range []*client.Client{near, far} {
		if err := c.Join(group); err != nil {
			t.Fatal(err)
		}
	}

	// handOff releases the floor from `from` (when set) and grants it
	// to `to`.
	handOff := func(from, to *client.Client, what string) {
		t.Helper()
		if from != nil {
			if err := from.ReleaseFloor(group); err != nil {
				t.Fatal(err)
			}
		}
		dec, err := to.RequestFloor(group, floor.EqualControl, "")
		if err != nil || !dec.Granted {
			t.Fatalf("%s grant: dec=%+v err=%v", what, dec, err)
		}
	}
	handOff(nil, far, "owner-homed")
	waitFor(t, "the other home sees the holder", func() bool {
		return near.Holder(group) == far.MemberID()
	})
	if err := far.Chat(group, "from node 1"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "chat crosses node 1 → node 0", func() bool {
		return near.Board(group).Seq() == 1
	})

	handOff(far, near, "replica-homed")
	waitFor(t, "the owner's home sees the holder", func() bool {
		return far.Holder(group) == near.MemberID()
	})
	if err := near.Chat(group, "from node 0"); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "chat crosses node 0 → node 1", func() bool {
		return far.Board(group).Seq() == 2
	})

	// Late joiners homed on each node backfill the same history.
	for home := 0; home < 2; home++ {
		late := dial(pickKeyFor(t, nodeAddrs, fmt.Sprintf("home-late%d-", home), home))
		if err := late.Join(group); err != nil {
			t.Fatal(err)
		}
		waitFor(t, fmt.Sprintf("late joiner homed on node %d backfills the board", home), func() bool {
			return late.Board(group).Seq() == 2
		})
	}

	// Reconnect-resume on both homes: each client drops, misses a line
	// chatted by the holder on the other home, and converges through
	// the resume backfill. Equal control lets only the holder speak, so
	// the floor crosses homes before each drop.
	handOff(near, far, "re-grant to node 1")
	near.Drop()
	if err := far.Chat(group, "missed on node 0"); err != nil {
		t.Fatal(err)
	}
	if err := near.Reconnect(); err != nil {
		t.Fatalf("node-0 reconnect: %v", err)
	}
	waitFor(t, "node-0 client resumes and converges", func() bool {
		return near.Board(group).Seq() == 3
	})

	handOff(far, near, "re-grant to node 0")
	far.Drop()
	if err := near.Chat(group, "missed on node 1"); err != nil {
		t.Fatal(err)
	}
	if err := far.Reconnect(); err != nil {
		t.Fatalf("node-1 reconnect: %v", err)
	}
	waitFor(t, "node-1 client resumes and converges", func() bool {
		return far.Board(group).Seq() == 4
	})
}

// TestHelloWireVersionRefused sends hellos whose wire_version is
// missing, 0 or 1 — anything but the binary framing — to a standalone
// server, to a cluster node and through the router, and requires the
// typed wire_version error followed by the connection closing. The
// router passes the home node's refusal to the client byte for byte.
func TestHelloWireVersionRefused(t *testing.T) {
	_, nodeAddrs, router := startTCPCluster(t)
	standalone, err := server.New(server.Config{Network: transport.TCP{}, Addr: freePorts(t, 1)[0]})
	if err != nil {
		t.Fatal(err)
	}
	standalone.Start()
	t.Cleanup(standalone.Close)

	// refusal sends one raw hello and returns the reply frame, failing
	// unless it is the typed refusal and the connection then closes.
	refusal := func(addr, hello string) []byte {
		t.Helper()
		conn, err := transport.TCP{}.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.Send([]byte(hello)); err != nil {
			t.Fatal(err)
		}
		wire, err := conn.Recv()
		if err != nil {
			t.Fatalf("%s: no reply: %v", addr, err)
		}
		msg, err := protocol.Decode(wire)
		var body protocol.ErrBody
		if err != nil || msg.Type != protocol.TErr || msg.Seq != 1 || msg.Into(&body) != nil ||
			body.Code != protocol.CodeWireVersion {
			t.Fatalf("%s: reply %s, want a %s err", addr, wire, protocol.CodeWireVersion)
		}
		closed := make(chan error, 1)
		go func() {
			_, err := conn.Recv()
			closed <- err
		}()
		select {
		case err := <-closed:
			if err == nil {
				t.Fatalf("%s: a frame followed the refusal", addr)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s: connection stayed open after the refusal", addr)
		}
		return wire
	}
	const base = `{"type":"hello","seq":1,"body":{"name":"old","role":"participant","priority":1%s}}`
	for _, ver := range []string{"", `,"wire_version":0`, `,"wire_version":1`} {
		hello := fmt.Sprintf(base, ver)
		refusal(standalone.Addr(), hello)
		direct := refusal(nodeAddrs[0], hello)
		if routed := refusal(router.Addr(), hello); !bytes.Equal(routed, direct) {
			t.Fatalf("router changed the refusal:\n routed: %s\n direct: %s", routed, direct)
		}
	}
}
