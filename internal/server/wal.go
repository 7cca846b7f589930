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
	s.walAppend(eventRecord(key, protocol.ReplicaEventBody{
		GSeq: gseq, CSeq: cseq, Class: class, State: state, Wire: wire,
	}))
}

// eventRecord is the journal record of one logged event.
func eventRecord(key string, e protocol.ReplicaEventBody) grouplog.WALRecord {
	return grouplog.WALRecord{
		Kind: grouplog.WALEvent, Key: key,
		GSeq: e.GSeq, CSeq: e.CSeq, Class: e.Class, State: e.State, Wire: e.Wire,
	}
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

// walState journals a partition's non-log serving state, restated from
// its live package: a group's roster and chair, floor blob and board
// head (so a restarted board never re-mints sequence numbers clients
// already applied); a member home's directory row and resume token,
// followed by the ID counter.
func (s *Server) walState(key string) {
	if s.wal == nil {
		return
	}
	for _, rec := range stateRecords(s.partitionState(key, false)) {
		s.walAppend(rec)
	}
	if strings.HasPrefix(key, "~") {
		s.walAppend(grouplog.WALRecord{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()})
	}
}

// stateRecords restates a package's non-log parts as journal records:
// the member record of a member home, or a group's group, floor and
// board-head records.
func stateRecords(tb protocol.TakeoverBody) []grouplog.WALRecord {
	if id, ok := strings.CutPrefix(tb.Key, "~"); ok {
		if tb.Member == nil {
			return nil
		}
		return []grouplog.WALRecord{{
			Kind: grouplog.WALMember, Key: id,
			Data: mustJSON(walMemberData{Info: *tb.Member, Token: tb.Token}),
		}}
	}
	return []grouplog.WALRecord{
		{Kind: grouplog.WALGroup, Key: tb.Key, Data: mustJSON(walGroupData{Chair: tb.Chair, Members: tb.Members})},
		{Kind: grouplog.WALFloor, Key: tb.Key, Data: mustJSON(tb.Floor)},
		{Kind: grouplog.WALBoardHead, Key: tb.Key, GSeq: tb.BoardHead},
	}
}

// recordPartition decodes one journal record into the partial package
// it restates (false for a record that restates no partition state).
func recordPartition(rec grouplog.WALRecord) (protocol.TakeoverBody, bool) {
	tb := protocol.TakeoverBody{Key: rec.Key}
	switch rec.Kind {
	case grouplog.WALEvent:
		if rec.GSeq <= 0 {
			return tb, false
		}
		tb.Events = []protocol.ReplicaEventBody{{
			GSeq: rec.GSeq, CSeq: rec.CSeq, Class: rec.Class, State: rec.State, Wire: rec.Wire,
		}}
	case grouplog.WALGroup:
		var data walGroupData
		if json.Unmarshal(rec.Data, &data) != nil {
			return tb, false
		}
		tb.Chair, tb.Members = data.Chair, data.Members
	case grouplog.WALFloor:
		tb.Floor = new(protocol.FloorReplicaBody)
		if json.Unmarshal(rec.Data, tb.Floor) != nil {
			return tb, false
		}
	case grouplog.WALBoardHead:
		tb.BoardHead = rec.GSeq
	case grouplog.WALMember:
		var data walMemberData
		if json.Unmarshal(rec.Data, &data) != nil || data.Info.ID == "" {
			return tb, false
		}
		tb.Key = grouplog.MemberKey(data.Info.ID)
		tb.Member, tb.Token = &data.Info, data.Token
	default:
		return tb, false
	}
	return tb, tb.Key != ""
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
// GSeq/CSeq cursors, tokens and floor state. Each state or event record
// becomes a partial package for installPartition.
func (s *Server) replayWAL(w *grouplog.WAL) error {
	return w.Replay(func(rec grouplog.WALRecord) error {
		switch rec.Kind {
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
		case grouplog.WALNextID:
			s.advanceNextID(rec.GSeq)
		default:
			if tb, ok := recordPartition(rec); ok {
				s.installPartition(tb)
			}
		}
		return nil
	})
}

// Checkpoint restates the node's full serving state — the ID counter,
// every member home and token, every log's retained window, and every
// group's roster/floor/board head — into a fresh WAL segment, then
// truncates the older segments. Events precede the board heads, so a
// replay converges the retained board ops before it skips the board
// past its head (the other way round, Converge would drop them as
// duplicates). The probe loop runs it on the WALCheckpointInterval
// cadence; tests call it directly. No-op (nil) when the WAL is off.
func (s *Server) Checkpoint() error {
	if s.wal == nil {
		return nil
	}
	recs := []grouplog.WALRecord{{Kind: grouplog.WALNextID, GSeq: s.nextID.Load()}}
	for _, m := range s.registry.Members() {
		recs = append(recs, stateRecords(s.partitionState(grouplog.MemberKey(string(m.ID)), false))...)
	}
	for _, key := range s.logs.Keys() {
		for _, e := range s.logEvents(key) {
			recs = append(recs, eventRecord(key, e))
		}
	}
	for _, gid := range s.registry.Groups() {
		recs = append(recs, stateRecords(s.partitionState(gid, false))...)
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
