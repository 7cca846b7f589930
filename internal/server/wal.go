package server

// Write-ahead durability for a node's live planes. When Config.WALDir
// is set, every logged append and every piece of non-log serving state
// — rosters, floor blobs, member homes and tokens, board heads, the ID
// counter — is journaled to an append-only segment store
// (grouplog.WAL) before the next accept, and New replays the journal
// before listening, so a restarted node resumes with the exact
// GSeq/CSeq cursors its clients hold: a pre-crash client Reconnects
// with its token and converges through ordinary backfill, no snapshot
// needed. Periodic checkpoints restate the full state into a fresh
// segment and truncate the old ones, bounding both replay time and
// disk. All hooks are no-ops when the WAL is off (s.wal == nil), so
// the standalone in-memory server pays nothing.

import (
	"encoding/json"
	"strings"

	"dmps/internal/floor"
	"dmps/internal/group"
	"dmps/internal/grouplog"
	"dmps/internal/protocol"
	"dmps/internal/whiteboard"
)

// walMemberData is the WALMember record payload: the directory row plus
// the session-resume token that must survive a restart.
type walMemberData struct {
	Info  protocol.NodeMemberInfo `json:"info"`
	Token string                  `json:"token,omitempty"`
}

// walGroupData is the WALGroup record payload: a group's roster and
// chair, restated wholesale on every membership change.
type walGroupData struct {
	Chair   string                    `json:"chair,omitempty"`
	Members []protocol.NodeMemberInfo `json:"members,omitempty"`
}

// walAppend journals one record, best-effort: a full disk must not
// take the live service down with it — replication to the R-1 peers
// still covers the state, which is the documented durability split.
func (s *Server) walAppend(rec grouplog.WALRecord) {
	if s.wal == nil {
		return
	}
	_ = s.wal.Append(rec)
}

// walEvent journals one logged append — the stamped canonical wire
// bytes plus their sequence coordinates, replayed via AppendRaw so the
// restarted log resumes at the same GSeq/CSeq. Called inside the log
// append's deliver callback (the WAL takes only its own lock).
func (s *Server) walEvent(key string, gseq, cseq int64, class string, state bool, wire []byte) {
	if s.wal == nil {
		return
	}
	rec := grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: key,
		GSeq: gseq, CSeq: cseq, Class: class, State: state, Wire: wire,
	}
	s.walAppend(rec)
}

// walFloor journals a group's current floor blob — the queue member
// identities the redacted wire bytes deliberately do not carry.
func (s *Server) walFloor(groupID string) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{
		Kind: grouplog.WALFloor, Key: groupID, Data: mustJSON(s.floorBlob(groupID)),
	})
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

// walGroupState journals a group's full non-log serving state: roster
// and chair, the floor blob, and the board head (so a restarted board
// never re-mints sequence numbers clients already applied).
func (s *Server) walGroupState(groupID string) {
	if s.wal == nil {
		return
	}
	data := walGroupData{}
	if members, err := s.registry.GroupMembers(groupID); err == nil {
		for _, m := range members {
			data.Members = append(data.Members, memberInfo(m))
		}
	}
	if chair, err := s.registry.Chair(groupID); err == nil {
		data.Chair = string(chair)
	}
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALGroup, Key: groupID, Data: mustJSON(data)})
	s.walFloor(groupID)
	gb := s.board(groupID)
	gb.mu.Lock()
	head := gb.board.Seq()
	gb.mu.Unlock()
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALBoardHead, Key: groupID, GSeq: head})
}

// walMemberHome journals a homed member's directory row and resume
// token — what lets the token resolve again after a restart.
func (s *Server) walMemberHome(m group.Member, token string) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{
		Kind: grouplog.WALMember, Key: string(m.ID),
		Data: mustJSON(walMemberData{Info: memberInfo(m), Token: token}),
	})
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()})
}

// walMemberDrop journals a member's expiry, so a replayed journal does
// not resurrect a session the reaper already revoked.
func (s *Server) walMemberDrop(id group.MemberID) {
	if s.wal == nil {
		return
	}
	s.walAppend(grouplog.WALRecord{Kind: grouplog.WALMemberDrop, Key: string(id)})
}

// mustJSON marshals a WAL payload; the payload shapes here cannot fail.
func mustJSON(v any) json.RawMessage {
	b, err := json.Marshal(v)
	if err != nil {
		return nil
	}
	return b
}

// applyBoardWire converges the board operations carried by one logged
// board-class event (a coalesced event carries a burst: the top-level
// op plus the rest in More). Converge, not Apply: the source is
// authoritative — this node's own journal or a replicated suffix — so
// a leading hole is history the retention window dropped, not loss.
func applyBoardWire(gb *groupBoard, wire []byte) {
	msg, err := protocol.DecodeBinary(wire)
	if err != nil {
		return
	}
	var body protocol.SequencedBody
	if msg.Into(&body) != nil || body.Seq == 0 {
		return
	}
	ops := append([]protocol.SequencedBody{body}, body.More...)
	gb.mu.Lock()
	for _, op := range ops {
		if kind, ok := whiteboard.ParseOpKind(op.Kind); ok {
			_ = gb.board.Converge(whiteboard.Op{Seq: op.Seq, Author: op.Author, Kind: kind, Data: op.Data})
		}
	}
	gb.mu.Unlock()
}

// replayWAL installs every journaled record into the live planes, in
// write order — run by New before the listener accepts anyone, so the
// first client of the restarted process already sees the pre-crash
// GSeq/CSeq cursors, tokens and floor state.
func (s *Server) replayWAL(w *grouplog.WAL) error {
	return w.Replay(func(rec grouplog.WALRecord) error {
		switch rec.Kind {
		case grouplog.WALEvent:
			if rec.Key == "" || rec.GSeq <= 0 {
				return nil
			}
			s.logs.Get(rec.Key).AppendRaw(rec.GSeq, rec.CSeq, rec.Class, rec.State, rec.Wire)
			if rec.Class == protocol.ClassBoard && !strings.HasPrefix(rec.Key, "~") {
				applyBoardWire(s.board(rec.Key), rec.Wire)
			}
		case grouplog.WALGroup:
			var data walGroupData
			if rec.Key == "" || json.Unmarshal(rec.Data, &data) != nil {
				return nil
			}
			for _, m := range data.Members {
				_ = s.registry.EnsureMember(memberFromInfo(m))
				s.bumpNextID(m.ID)
			}
			if data.Chair != "" {
				if err := s.registry.CreateGroup(rec.Key, group.MemberID(data.Chair)); err != nil {
					_ = err // duplicate create on a later restatement
				}
				for _, m := range data.Members {
					_ = s.registry.Join(rec.Key, group.MemberID(m.ID))
				}
			}
		case grouplog.WALFloor:
			var blob protocol.FloorReplicaBody
			if rec.Key == "" || json.Unmarshal(rec.Data, &blob) != nil {
				return nil
			}
			mode, ok := floor.ParseMode(blob.Mode)
			if !ok {
				mode = floor.FreeAccess
			}
			queue := make([]group.MemberID, 0, len(blob.Queue))
			for _, m := range blob.Queue {
				queue = append(queue, group.MemberID(m))
			}
			suspended := make([]group.MemberID, 0, len(blob.Suspended))
			for _, m := range blob.Suspended {
				suspended = append(suspended, group.MemberID(m))
			}
			s.floorCtl.Restore(rec.Key, mode, group.MemberID(blob.Holder), queue, suspended, blob.Pinned)
		case grouplog.WALMember:
			var data walMemberData
			if json.Unmarshal(rec.Data, &data) != nil || data.Info.ID == "" {
				return nil
			}
			_ = s.registry.EnsureMember(memberFromInfo(data.Info))
			s.bumpNextID(data.Info.ID)
			if data.Token != "" {
				s.mu.Lock()
				s.tokens[data.Token] = group.MemberID(data.Info.ID)
				s.tokenOf[group.MemberID(data.Info.ID)] = data.Token
				s.mu.Unlock()
			}
		case grouplog.WALMemberDrop:
			if rec.Key == "" {
				return nil
			}
			id := group.MemberID(rec.Key)
			s.mu.Lock()
			if tok, ok := s.tokenOf[id]; ok {
				delete(s.tokens, tok)
				delete(s.tokenOf, id)
			}
			s.mu.Unlock()
			s.registry.Unregister(id)
			s.logs.Drop(grouplog.MemberKey(rec.Key))
		case grouplog.WALBoardHead:
			if rec.Key == "" {
				return nil
			}
			gb := s.board(rec.Key)
			gb.mu.Lock()
			gb.board.SkipTo(rec.GSeq)
			gb.mu.Unlock()
		case grouplog.WALNextID:
			for {
				cur := s.nextID.Load()
				if cur >= rec.GSeq || s.nextID.CompareAndSwap(cur, rec.GSeq) {
					break
				}
			}
		}
		return nil
	})
}

// Checkpoint restates the node's full serving state — the ID counter,
// every member home and token, every group's roster/floor/board head,
// and every log's retained window — into a fresh WAL segment, then
// truncates the older segments. The probe loop runs it on the
// WALCheckpointInterval cadence; tests call it directly. No-op (nil)
// when the WAL is off.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	var recs []grouplog.WALRecord
	recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()})
	s.mu.Lock()
	tokens := make(map[group.MemberID]string, len(s.tokenOf))
	for id, tok := range s.tokenOf {
		tokens[id] = tok
	}
	s.mu.Unlock()
	for _, m := range s.registry.Members() {
		recs = append(recs, grouplog.WALRecord{
			Kind: grouplog.WALMember, Key: string(m.ID),
			Data: mustJSON(walMemberData{Info: memberInfo(m), Token: tokens[m.ID]}),
		})
	}
	for _, gid := range s.registry.Groups() {
		data := walGroupData{}
		if members, err := s.registry.GroupMembers(gid); err == nil {
			for _, m := range members {
				data.Members = append(data.Members, memberInfo(m))
			}
		}
		if chair, err := s.registry.Chair(gid); err == nil {
			data.Chair = string(chair)
		}
		recs = append(recs,
			grouplog.WALRecord{Kind: grouplog.WALGroup, Key: gid, Data: mustJSON(data)},
			grouplog.WALRecord{Kind: grouplog.WALFloor, Key: gid, Data: mustJSON(s.floorBlob(gid))},
		)
		gb := s.board(gid)
		gb.mu.Lock()
		head := gb.board.Seq()
		gb.mu.Unlock()
		recs = append(recs, grouplog.WALRecord{Kind: grouplog.WALBoardHead, Key: gid, GSeq: head})
	}
	for _, key := range s.logs.Keys() {
		lg, ok := s.logs.Peek(key)
		if !ok {
			continue
		}
		for _, e := range lg.Dump() {
			recs = append(recs, grouplog.WALRecord{
				Kind: grouplog.WALEvent, Key: key,
				GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State, Wire: e.Wire,
			})
		}
	}
	return s.wal.Checkpoint(recs)
}

// WALStats reports the segment store's occupancy (zero when off).
func (s *Server) WALStats() grouplog.WALStats {
	if s.wal == nil {
		return grouplog.WALStats{}
	}
	return s.wal.Stats()
}
