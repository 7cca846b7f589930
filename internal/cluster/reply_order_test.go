package cluster_test

import (
	"fmt"
	"sync"
	"testing"

	"dmps/internal/client"
	"dmps/internal/core"
	"dmps/internal/floor"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
)

// TestReplyFollowsItsEvents pins the protocol rule that, on the
// requester's connection, a request's reply follows every event the
// request caused: when Join returns the join snapshot has already been
// observed, and when a floor request or release returns so has the
// floor event it logged. It runs against a standalone server and
// through the router of a two-node cluster.
func TestReplyFollowsItsEvents(t *testing.T) {
	lab, err := core.NewLab(core.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer lab.Close()
	cl, err := core.StartCluster(core.ClusterOptions{Options: core.Options{Seed: 3}, Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	for _, target := range []struct {
		name string
		net  *netsim.Net
		addr string
	}{
		{"standalone", lab.Net, core.ServerAddr},
		{"router", cl.Net, core.RouterAddr},
	} {
		t.Run(target.name+"/binary", func(t *testing.T) {
			var mu sync.Mutex
			var seen []string // "type group event", in arrival order
			c, err := client.Dial(client.Config{
				Network: target.net, Addr: target.addr,
				Name: "order-" + target.name, Role: "participant", Priority: 2,
				OnEvent: func(msg protocol.Message) {
					event := ""
					if msg.Type == protocol.TFloorEvent {
						var body protocol.FloorEventBody
						if msg.Into(&body) == nil {
							event = body.Event
						}
					}
					mu.Lock()
					seen = append(seen, fmt.Sprintf("%s %s %s", msg.Type, msg.Group, event))
					mu.Unlock()
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			// step runs one request and requires the event it caused
			// to be observed by the time the request returns.
			step := func(what, want string, req func() error) {
				t.Helper()
				mu.Lock()
				mark := len(seen)
				mu.Unlock()
				if err := req(); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				mu.Lock()
				defer mu.Unlock()
				for _, got := range seen[mark:] {
					if got == want {
						return
					}
				}
				t.Fatalf("%s returned before %q arrived; seen since the request: %q", what, want, seen[mark:])
			}
			for i := 0; i < 8; i++ {
				g := fmt.Sprintf("order-%s-%d", target.name, i)
				step("join "+g, "snapshot "+g+" ", func() error { return c.Join(g) })
				step("request "+g, "floor_event "+g+" granted", func() error {
					dec, err := c.RequestFloor(g, floor.EqualControl, "")
					if err == nil && !dec.Granted {
						err = fmt.Errorf("not granted: %+v", dec)
					}
					return err
				})
				step("release "+g, "floor_event "+g+" released", func() error { return c.ReleaseFloor(g) })
			}
		})
	}
}
