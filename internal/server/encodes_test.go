package server

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"dmps/internal/client"
	"dmps/internal/metrics"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// TestEncodesCountsDeliveryPath pins the encode-once accounting on the
// server instance: a logged broadcast to a group costs exactly one
// encode, and another server's traffic in the same process never shows
// up in the count. The count is exported as dmps_encodes_total.
func TestEncodesCountsDeliveryPath(t *testing.T) {
	n := netsim.New(1)
	start := func(addr string) *Server {
		// Probes parked: the only encodes are the ones the test causes.
		srv, err := New(Config{Network: n, Addr: addr, ProbeInterval: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		srv.Start()
		t.Cleanup(srv.Close)
		return srv
	}
	a, b := start("a:1"), start("b:1")
	dial := func(addr, name, groupID string) *client.Client {
		t.Helper()
		c, err := client.Dial(client.Config{
			Network: n, Addr: addr, Name: name, Role: "participant", Priority: 2,
			Timeout: 2 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(c.Close)
		if err := c.Join(groupID); err != nil {
			t.Fatal(err)
		}
		// Requests are handled in order per session: this round trip
		// proves the join handler, and the lights push it ends with,
		// has finished encoding.
		if err := c.Replay(groupID, 0); err != nil {
			t.Fatal(err)
		}
		return c
	}
	members := []*client.Client{dial("a:1", "b1", "bin"), dial("a:1", "b2", "bin"), dial("a:1", "b3", "bin")}
	elsewhere := []*client.Client{dial("b:1", "o1", "bin")}

	broadcast := func(srv *Server, groupID string, members []*client.Client) int64 {
		t.Helper()
		before := srv.Encodes()
		ev := protocol.MustNew(protocol.TChatEvent, protocol.SequencedBody{
			Seq: 1, Author: "server", Kind: "text", Data: "fanout",
		})
		ev.Group = groupID
		srv.Broadcast(groupID, ev)
		for i, c := range members {
			waitFor(t, fmt.Sprintf("%s member %d delivery", groupID, i), func() bool {
				return c.Board(groupID).Seq() >= 1
			})
		}
		return srv.Encodes() - before
	}
	if got := broadcast(a, "bin", members); got != 1 {
		t.Errorf("group broadcast encodes = %d, want 1", got)
	}
	aBefore := a.Encodes()
	if got := broadcast(b, "bin", elsewhere); got != 1 {
		t.Errorf("second server broadcast encodes = %d, want 1", got)
	}
	if got := a.Encodes() - aBefore; got != 0 {
		t.Errorf("another server's broadcast moved this server's count by %d", got)
	}

	reg := metrics.NewRegistry()
	a.RegisterMetrics(reg)
	var out bytes.Buffer
	if err := reg.WritePrometheus(&out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("dmps_encodes_total %d\n", a.Encodes()); !strings.Contains(out.String(), want) {
		t.Errorf("scrape lacks %q:\n%s", want, out.String())
	}
}
