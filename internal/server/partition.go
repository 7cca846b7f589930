package server

// One package for a partition's serving state. protocol.TakeoverBody is
// what a partition IS to this node — for a group: roster and chair,
// floor blob, retained events and board head; for a "~member" key: the
// directory row, resume token and member-log events. Every route that
// moves that state uses it: the replica store holds it, migration ships
// it, failover adoption and migration takeover install it, and the WAL
// restates it (Checkpoint) and rebuilds it record by record (replay).
// partitionState is the one dump and installPartition the one install;
// ownership bookkeeping (adopted/served/homes, epoch admission) stays
// with each caller.

import (
	"strings"

	"dmps/internal/cluster"
	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/protocol"
)

// partitionState dumps a partition's live serving state into its
// package, with the key's retained log window when withEvents is set.
func (s *Server) partitionState(key string, withEvents bool) protocol.TakeoverBody {
	tb := protocol.TakeoverBody{Key: key}
	if id, ok := strings.CutPrefix(key, "~"); ok {
		if m, err := s.registry.Member(group.MemberID(id)); err == nil {
			info := memberInfo(m)
			tb.Member = &info
		}
		s.mu.Lock()
		tb.Token = s.tokenOf[group.MemberID(id)]
		s.mu.Unlock()
	} else {
		if members, err := s.registry.GroupMembers(key); err == nil {
			for _, m := range members {
				tb.Members = append(tb.Members, memberInfo(m))
			}
		}
		if chair, err := s.registry.Chair(key); err == nil {
			tb.Chair = string(chair)
		}
		tb.Floor = s.floorBlob(key)
		gb := s.board(key)
		gb.mu.Lock()
		tb.BoardHead = gb.board.Seq()
		gb.mu.Unlock()
	}
	if withEvents {
		tb.Events = s.logEvents(key)
	}
	return tb
}

// logEvents dumps a key's retained log window in package form.
func (s *Server) logEvents(key string) []protocol.ReplicaEventBody {
	lg, ok := s.logs.Peek(key)
	if !ok {
		return nil
	}
	var out []protocol.ReplicaEventBody
	for _, e := range lg.Dump() {
		out = append(out, protocol.ReplicaEventBody{
			GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State, Wire: e.Wire,
		})
	}
	return out
}

// floorBlob snapshots a group's floor state in its replication form.
func (s *Server) floorBlob(groupID string) *protocol.FloorReplicaBody {
	mode, holder, queue, suspended, pinned := s.floorCtl.StateSnapshot(groupID)
	blob := &protocol.FloorReplicaBody{Mode: mode.String(), Holder: string(holder), Pinned: pinned}
	for _, m := range queue {
		blob.Queue = append(blob.Queue, string(m))
	}
	for _, m := range suspended {
		blob.Suspended = append(blob.Suspended, string(m))
	}
	return blob
}

// installPartition installs a partition package into the live planes.
// Absent parts are left alone, so a WAL record decoded into a partial
// package installs through here too. A member home restores the
// directory row and resume token; a group restores its roster and
// chair into the registry and its floor state (mode, holder, queue,
// suspensions, pin) into the controller. The logged suffix lands in
// the log plane with its original sequence numbers and board ops
// converge into the authoritative board, so clients catch up through
// ordinary backfill — a handoff looks exactly like a reconnect, with
// zero duplicate grants (the holder is restored, never re-granted).
// The ID counter moves past every installed member ID and the board
// past the owner's known head, so neither re-mints what clients hold.
// Finally the partition's state is journaled, so a restart of THIS
// process serves it too (a no-op during replay: the WAL arms after).
func (s *Server) installPartition(tb protocol.TakeoverBody) {
	key := tb.Key
	id, isMember := strings.CutPrefix(key, "~")
	var gb *groupBoard
	if isMember {
		if tb.Member != nil {
			_ = s.registry.EnsureMember(memberFromInfo(*tb.Member))
		}
		s.bumpNextID(id)
		if tb.Token != "" {
			s.mu.Lock()
			s.tokens[tb.Token] = group.MemberID(id)
			s.tokenOf[group.MemberID(id)] = tb.Token
			s.mu.Unlock()
		}
	} else {
		for _, m := range tb.Members {
			_ = s.registry.EnsureMember(memberFromInfo(m))
			s.bumpNextID(m.ID)
		}
		if tb.Chair != "" {
			// A duplicate create is a later restatement of this group.
			_ = s.registry.CreateGroup(key, group.MemberID(tb.Chair))
			for _, m := range tb.Members {
				_ = s.registry.Join(key, group.MemberID(m.ID))
			}
		}
		if f := tb.Floor; f != nil {
			mode, ok := floor.ParseMode(f.Mode)
			if !ok {
				mode = floor.FreeAccess
			}
			queue := make([]group.MemberID, 0, len(f.Queue))
			for _, m := range f.Queue {
				queue = append(queue, group.MemberID(m))
			}
			suspended := make([]group.MemberID, 0, len(f.Suspended))
			for _, m := range f.Suspended {
				suspended = append(suspended, group.MemberID(m))
			}
			s.floorCtl.Restore(key, mode, group.MemberID(f.Holder), queue, suspended, f.Pinned)
		}
		gb = s.board(key)
	}
	if len(tb.Events) > 0 {
		lg := s.logs.Get(key)
		for _, e := range tb.Events {
			lg.AppendRaw(e.GSeq, e.CSeq, e.Class, e.State, e.Wire)
			s.walEvent(key, e.GSeq, e.CSeq, e.Class, e.State, e.Wire)
			if gb != nil && e.Class == protocol.ClassBoard {
				applyBoardWire(gb, e.Wire)
			}
		}
	}
	if gb != nil {
		gb.mu.Lock()
		gb.board.SkipTo(tb.BoardHead)
		gb.mu.Unlock()
	}
	s.walState(key)
}

// ownerKey maps a log key to the partition-map key that owns it: a
// "~member" key partitions by its member's home key, a group by its ID.
func ownerKey(key string) string {
	if id, ok := strings.CutPrefix(key, "~"); ok {
		return cluster.HomeKey(id)
	}
	return key
}
