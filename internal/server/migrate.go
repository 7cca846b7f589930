package server

// Epoch-versioned live migration: the node-side half of Router.Recover.
// When a node returns to the ring (replacement, restart, ring growth),
// the state its partitions accumulated elsewhere — adopted live state
// on the nodes that took over, plus replica packages that were never
// adopted — must move back BEFORE the partition map reassigns traffic,
// or the recovered primary would serve its partitions empty (the
// split-brain Map.MarkUp used to cause). The coordinator (the router)
// bumps the map epoch, asks every surviving node to ship what it holds
// for the recovering node (ForwardMigrate), and only after every node
// confirms (ForwardMigrated) marks the node up and pushes node_moved.
// Shipped packages are stamped with the epoch; receivers discard
// packages from epochs older than one already installed, which makes
// repeated or racing migrations converge instead of resurrecting stale
// state.

import (
	"strings"

	"dmps/internal/cluster"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// runMigration is the node side of a coordinated recovery: freeze every
// key this node holds for the recovering node (adopted live state and
// never-adopted replica packages alike), ship takeover packages over a
// dedicated connection, wait for the receiver's barrier ack (the
// transport is in-order, so the ack certifies every package installed),
// drop the local claim, and reply ForwardMigrated to the coordinator on
// the inbound connection.
func (s *Server) runMigration(conn transport.Conn, body protocol.ForwardBody) {
	reply := func(groups []string) {
		_ = conn.Send(cluster.EncodeForward(protocol.ForwardBody{
			Kind: protocol.ForwardMigrated, Groups: groups, Epoch: body.Epoch,
		}, 0, 0))
	}
	if body.Addr == "" {
		reply(nil)
		return
	}
	epoch := body.Epoch
	s.cluster.topo.AdvanceEpoch(epoch)

	// Freeze: collect the adopted keys owed to the recovering node and
	// gate traffic for them (node_moved) until the handoff completes.
	s.cluster.mu.Lock()
	var keys []string
	for gid := range s.cluster.adopted {
		if s.cluster.topo.Primary(gid) == body.Node {
			keys = append(keys, gid)
		}
	}
	for id := range s.cluster.adoptedMembers {
		if s.cluster.topo.Primary(cluster.HomeKey(id)) == body.Node {
			keys = append(keys, grouplog.MemberKey(id))
		}
	}
	for _, key := range keys {
		s.cluster.migrating[key] = true
	}
	s.cluster.mu.Unlock()

	// Never-adopted replica packages for the node's partitions: the
	// recovering node may have restarted empty, so the replica this node
	// holds can be the only copy of a partition that saw no traffic
	// while the node was down. Then the live state of the adopted keys.
	var packages []protocol.TakeoverBody
	for _, key := range s.cluster.store.Keys() {
		if s.cluster.topo.Primary(ownerKey(key)) != body.Node {
			continue
		}
		if tb, ok := s.cluster.store.Take(key); ok {
			packages = append(packages, tb)
		}
	}
	for _, key := range keys {
		packages = append(packages, s.partitionState(key, true))
	}
	for i := range packages {
		packages[i].Epoch = epoch
	}

	unfreeze := func() {
		s.cluster.mu.Lock()
		for _, key := range keys {
			delete(s.cluster.migrating, key)
		}
		s.cluster.mu.Unlock()
	}

	if len(packages) == 0 {
		unfreeze()
		reply(nil)
		return
	}

	ship, err := s.cluster.cfg.Network.Dial(body.Addr)
	if err != nil {
		// The recovering node vanished again: abort, keep serving.
		unfreeze()
		reply(nil)
		return
	}
	defer ship.Close()
	shipped := make([]string, 0, len(packages))
	for i := range packages {
		tb := packages[i]
		if err := ship.Send(cluster.EncodeForward(protocol.ForwardBody{
			Kind: protocol.ForwardTakeover, Takeover: &tb,
		}, 0, 0)); err != nil {
			unfreeze()
			reply(nil)
			return
		}
		shipped = append(shipped, tb.Key)
	}
	// Barrier: the receiver acks this marker only after processing every
	// package that preceded it on this in-order connection.
	barrierID := s.cluster.acks.NextID()
	if err := ship.Send(cluster.EncodeForward(protocol.ForwardBody{
		Kind: protocol.ForwardMigrated, ID: barrierID, From: s.cluster.selfAddr(), Groups: shipped,
	}, 0, 0)); err != nil {
		unfreeze()
		reply(nil)
		return
	}
	for {
		wire, err := ship.Recv()
		if err != nil {
			unfreeze()
			reply(nil)
			return
		}
		msg, err := protocol.DecodeBinary(wire)
		if err != nil || msg.Type != protocol.TForward {
			continue
		}
		var ack protocol.ForwardBody
		if msg.Into(&ack) == nil && ack.Kind == protocol.ForwardAck && ack.ID == barrierID {
			break
		}
	}

	// Handoff confirmed: drop the local claim. The residual registry and
	// log entries are harmless — the gate answers node_moved for these
	// keys now, and a future re-adoption installs idempotently on top
	// (AppendRaw dedups, CreateGroup tolerates duplicates).
	s.cluster.mu.Lock()
	for _, key := range keys {
		delete(s.cluster.migrating, key)
		if id, ok := strings.CutPrefix(key, "~"); ok {
			delete(s.cluster.adoptedMembers, id)
			s.cluster.homes.Delete(id)
		} else {
			delete(s.cluster.adopted, key)
			s.cluster.served.Delete(key)
		}
	}
	s.cluster.mu.Unlock()
	reply(shipped)
}

// installTakeover installs one migration package: into the live planes
// when this node natively owns the key (the recovering primary), into
// the replica store otherwise (a successor restocking its standby
// copy). Stale epochs are discarded.
func (s *Server) installTakeover(tb protocol.TakeoverBody) {
	if tb.Key == "" || !s.cluster.store.AdmitEpoch(tb.Key, tb.Epoch) {
		return
	}
	s.cluster.topo.AdvanceEpoch(tb.Epoch)
	if s.cluster.topo.Primary(ownerKey(tb.Key)) != s.cluster.cfg.Self {
		s.cluster.store.Install(tb)
		return
	}
	s.installPartition(tb)
}
