package server

import (
	"reflect"
	"sync"
	"testing"

	"dmps/internal/client"
	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/netsim"
	"dmps/internal/protocol"
	"dmps/internal/resource"
	"dmps/internal/whiteboard"
)

// routeNodes is the two-node ring the route servers below sit on.
var routeNodes = []string{"node:0", "node:1"}

// newRouteServer starts a fresh, empty server for one install route:
// node self of routeNodes when clustered, standalone otherwise, with a
// WAL under walDir when set. Nothing listens at the other ring address,
// so a clustered server sees its peer as dead.
func newRouteServer(t *testing.T, self int, clustered bool, walDir string) *Server {
	t.Helper()
	cfg := Config{Network: netsim.New(1), Addr: routeNodes[self], WALDir: walDir}
	if clustered {
		cfg.Cluster = &ClusterConfig{Nodes: routeNodes, Self: self}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// boardOps reads a group's authoritative board.
func boardOps(s *Server, groupID string) []whiteboard.Op {
	gb := s.board(groupID)
	gb.mu.Lock()
	defer gb.mu.Unlock()
	return gb.board.Ops()
}

// TestPartitionRoutesInstallTheSameState builds a group carrying every
// part of a partition's state — roster and chair, an equal-control
// holder and queue, a suspended member, the chair's pin, board ops and
// chat — plus a homed member with a token and an invitation in their
// member log. It dumps both packages and installs them into fresh
// servers by every route the fleet moves them on: replica-store
// adoption, a ForwardTakeover off the wire, and the WAL (the install's
// own journal, then Checkpoint) across a reopen. Each route's re-dump
// must equal the source dump, and its board the source board.
func TestPartitionRoutesInstallTheSameState(t *testing.T) {
	topo := cluster.NewMap(routeNodes)
	// The group and the invitee's home share a primary, so one node
	// natively owns both packages and the other can adopt both.
	owner := topo.Primary(cluster.HomeKey(group.SanitizeName("Dave")))
	g := "class"
	for i := 0; topo.Primary(g) != owner; i++ {
		g = "class-" + string(rune('a'+i))
	}

	l := newLab(t)
	teacher := l.dial("Teacher", "chair", 5)
	alice := l.dial("Alice", "participant", 3)
	bob := l.dial("Bob", "participant", 4)
	carol := l.dial("Carol", "participant", 1)
	dave := l.dial("Dave", "participant", 2)
	for _, c := range []*client.Client{teacher, alice, bob, carol} {
		if err := c.Join(g); err != nil {
			t.Fatal(err)
		}
	}
	if err := teacher.Annotate(g, "draw", "line 1"); err != nil {
		t.Fatal(err)
	}
	if err := teacher.Chat(g, "welcome"); err != nil {
		t.Fatal(err)
	}
	l.srv.FlushBoardBatches()
	if err := teacher.SwitchMode(g, floor.EqualControl, true); err != nil {
		t.Fatal(err)
	}
	if dec, err := alice.RequestFloor(g, floor.EqualControl, ""); err != nil || !dec.Granted {
		t.Fatalf("alice: dec=%+v err=%v", dec, err)
	}
	// Degraded resources: the next arbitration suspends the lowest
	// priority member (carol) while bob queues behind alice.
	l.mon.Set(resource.Vector{Network: 0.3, CPU: 0.3, Memory: 0.3})
	if dec, err := bob.RequestFloor(g, floor.EqualControl, ""); err != nil || dec.Granted {
		t.Fatalf("bob: dec=%+v err=%v", dec, err)
	}
	if _, err := teacher.Invite(g, dave.MemberID()); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "invitation", func() bool { return len(dave.PendingInvites()) == 1 })

	src := l.srv.partitionState(g, true)
	srcM := l.srv.partitionState(grouplog.MemberKey(dave.MemberID()), true)
	srcOps := boardOps(l.srv, g)
	want := &protocol.FloorReplicaBody{
		Mode: floor.EqualControl.String(), Holder: alice.MemberID(),
		Queue: []string{bob.MemberID()}, Suspended: []string{carol.MemberID()}, Pinned: true,
	}
	if !reflect.DeepEqual(src.Floor, want) {
		t.Fatalf("source floor = %+v, want %+v", src.Floor, want)
	}
	if src.Chair != teacher.MemberID() || len(src.Members) != 4 || src.BoardHead != 2 || len(srcOps) != 2 {
		t.Fatalf("source group = chair %q members %d board head %d ops %d", src.Chair, len(src.Members), src.BoardHead, len(srcOps))
	}
	classes := map[string]bool{}
	for _, e := range src.Events {
		classes[e.Class] = true
	}
	if !classes[protocol.ClassBoard] || !classes[protocol.ClassFloor] || !classes[protocol.ClassSuspend] {
		t.Fatalf("source events cover classes %v", classes)
	}
	if srcM.Member == nil || srcM.Token == "" || len(srcM.Events) != 1 {
		t.Fatalf("source member home = %+v", srcM)
	}

	check := func(route string, s *Server) {
		t.Helper()
		if got := s.partitionState(g, true); !reflect.DeepEqual(got, src) {
			t.Errorf("%s: group re-dump\n got %+v\nwant %+v", route, got, src)
		}
		if got := s.partitionState(srcM.Key, true); !reflect.DeepEqual(got, srcM) {
			t.Errorf("%s: member re-dump\n got %+v\nwant %+v", route, got, srcM)
		}
		if got := boardOps(s, g); !reflect.DeepEqual(got, srcOps) {
			t.Errorf("%s: board = %+v, want %+v", route, got, srcOps)
		}
	}

	// Failover adoption: the packages sit in a successor's replica
	// store; traffic for the group and a resume of the member's token
	// adopt them once the primary is unreachable.
	adopter := newRouteServer(t, 1-owner, true, "")
	adopter.cluster.store.Install(src)
	adopter.cluster.store.Install(srcM)
	if !adopter.servesGroup(g) {
		t.Fatal("adoption: successor did not adopt the group")
	}
	if id, _, ok := adopter.adoptResume(srcM.Token); !ok || string(id) != dave.MemberID() {
		t.Fatalf("adoption: resume adopted %q, %v", id, ok)
	}
	check("adoption", adopter)

	// Migration takeover: the packages arrive as ForwardTakeover frames
	// at the node that natively owns them.
	native := newRouteServer(t, owner, true, "")
	for _, tb := range []protocol.TakeoverBody{src, srcM} {
		msg, err := protocol.DecodeAny(cluster.EncodeForward(protocol.ForwardBody{
			Kind: protocol.ForwardTakeover, Takeover: &tb,
		}, 0, 0))
		if err != nil {
			t.Fatal(err)
		}
		native.handleForward(nil, msg)
	}
	check("takeover", native)

	// WAL: the install journals what it installed, and a checkpoint
	// restates it; both must replay to the same state.
	dir := t.TempDir()
	walSrv := newRouteServer(t, 0, false, dir)
	walSrv.installPartition(src)
	walSrv.installPartition(srcM)
	walSrv.Close()
	reopened := newRouteServer(t, 0, false, dir)
	check("journal replay", reopened)
	if err := reopened.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopened.Close()
	check("checkpoint replay", newRouteServer(t, 0, false, dir))
}

// TestPartitionInstallKeepsOwnershipWithCaller: the install itself
// claims nothing — a takeover of a natively owned key and the WAL
// replay of an adopted group leave the adoption maps empty; only
// failover adoption marks the group adopted and served.
func TestPartitionInstallKeepsOwnershipWithCaller(t *testing.T) {
	topo := cluster.NewMap(routeNodes)
	g := "ownership"
	tb := protocol.TakeoverBody{
		Key: g, Chair: "ann#1",
		Members: []protocol.NodeMemberInfo{{ID: "ann#1", Name: "Ann", Role: "chair", Priority: 5}},
		Floor:   &protocol.FloorReplicaBody{Mode: floor.FreeAccess.String()},
	}
	native := newRouteServer(t, topo.Primary(g), true, "")
	native.installTakeover(tb)
	if len(native.cluster.adopted) != 0 {
		t.Errorf("native takeover marked adopted: %v", native.cluster.adopted)
	}
	if _, ok := native.cluster.served.Load(g); ok {
		t.Error("native takeover marked served")
	}
	dir := t.TempDir()
	adopter := newRouteServer(t, 1-topo.Primary(g), true, dir)
	adopter.cluster.store.Install(tb)
	if !adopter.servesGroup(g) || !adopter.cluster.adopted[g] {
		t.Fatal("failover did not adopt")
	}
	if _, ok := adopter.cluster.served.Load(g); !ok {
		t.Error("adopted group not marked served")
	}
	if adopter.nextID.Load() < 1 {
		t.Errorf("ID counter %d not past the installed member", adopter.nextID.Load())
	}
	adopter.Close()
	restarted := newRouteServer(t, 1-topo.Primary(g), true, dir)
	if chair, err := restarted.registry.Chair(g); err != nil || string(chair) != "ann#1" {
		t.Fatalf("replayed chair = %q, %v", chair, err)
	}
	if len(restarted.cluster.adopted) != 0 {
		t.Errorf("WAL replay marked adopted: %v", restarted.cluster.adopted)
	}
}

// TestConcurrentResumesAdoptOnce races several resumes of one
// replicated member home on a successor whose home node is dead: every
// resume resolves to the member, and the home is taken from the replica
// store and installed exactly once.
func TestConcurrentResumesAdoptOnce(t *testing.T) {
	topo := cluster.NewMap(routeNodes)
	id := "eve#3"
	adopter := newRouteServer(t, 1-topo.Primary(cluster.HomeKey(id)), true, "")
	info := protocol.NodeMemberInfo{ID: id, Name: "Eve", Role: "participant", Priority: 2}
	adopter.cluster.store.ApplyMemberHome(info, "tok-eve")

	const resumes = 4
	var wg sync.WaitGroup
	got := make([]string, resumes)
	for i := 0; i < resumes; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if mid, _, ok := adopter.adoptResume("tok-eve"); ok {
				got[i] = string(mid)
			}
		}(i)
	}
	wg.Wait()
	for i, mid := range got {
		if mid != id {
			t.Errorf("resume %d adopted %q, want %q", i, mid, id)
		}
	}
	if adopter.cluster.store.Has(grouplog.MemberKey(id)) {
		t.Error("replica home still in the store after adoption")
	}
	adopter.mu.Lock()
	tok := adopter.tokenOf[group.MemberID(id)]
	adopter.mu.Unlock()
	if tok != "tok-eve" || !adopter.homesMember(group.MemberID(id)) {
		t.Errorf("adopted home: token %q, homed %v", tok, adopter.homesMember(group.MemberID(id)))
	}
}
