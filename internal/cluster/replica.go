package cluster

import (
	"sync"

	"dmps/internal/grouplog"
	"dmps/internal/protocol"
)

// ReplicaStore holds the partition packages a node keeps on behalf of
// its ring predecessors, one protocol.TakeoverBody per key — the same
// package a migration ships and a takeover installs. A group key
// accumulates its retained logged-event suffix (ForwardReplica), the
// latest floor blob (mode, holder, the queue the redacted wire bytes
// cannot carry, suspensions, pin) and its roster and chair
// (ForwardMembers); a "~member" key holds the member's home — directory
// row and resume token (ForwardMemberHome) — beside their member-log
// suffix. Adoption drains one key's package into the live planes.
// Retention is bounded per key (at least cap events, trimmed amortized
// at 2×cap, FIFO) — a client older than the retained suffix converges
// through the snapshot fallback, same as with the in-process log ring.
// Safe for concurrent use.
type ReplicaStore struct {
	mu    sync.Mutex
	cap   int
	parts map[string]*replica
	// epochs records, per key, the newest migration epoch whose takeover
	// package this store (or its node) has installed; packages stamped
	// older are stale and discarded.
	epochs map[string]int64
}

// replica is one stored package plus the highest replicated GSeq among
// its events — the only bookkeeping the package itself does not carry.
type replica struct {
	tb   protocol.TakeoverBody
	head int64
}

// NewReplicaStore returns an empty store retaining up to cap events per
// key (cap <= 0 means 512, matching the log plane's default).
func NewReplicaStore(cap int) *ReplicaStore {
	if cap <= 0 {
		cap = 512
	}
	return &ReplicaStore{cap: cap, parts: make(map[string]*replica), epochs: make(map[string]int64)}
}

func (s *ReplicaStore) part(key string) *replica {
	r, ok := s.parts[key]
	if !ok {
		r = &replica{tb: protocol.TakeoverBody{Key: key}}
		s.parts[key] = r
	}
	return r
}

// ApplyEvent records one replicated logged event for a key. The wire
// bytes are the owner's stamped binary fan-out frame; its
// envelope is parsed here (off the owner's hot path) to recover the
// sequence fields. An optional floor blob replaces the group's takeover
// floor state.
func (s *ReplicaStore) ApplyEvent(key string, wire []byte, floor *protocol.FloorReplicaBody) {
	env, err := protocol.DecodeBinary(wire)
	if err != nil || env.GSeq == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r := s.part(key)
	// Forwards ride FIFO per-peer queues, so duplicates cannot happen but
	// a re-dial after a pool hiccup can replay nothing; only advance.
	if env.GSeq <= r.head {
		return
	}
	r.head = env.GSeq
	tb := &r.tb
	tb.Events = append(tb.Events, protocol.ReplicaEventBody{
		GSeq: env.GSeq, CSeq: env.CSeq, Class: env.Class, State: env.State, Wire: wire,
	})
	if env.Class == protocol.ClassBoard {
		// Track the owner's board head across the whole coalesced burst,
		// so takeover knows where sequence minting must resume even if
		// earlier board events were trimmed from the retained suffix.
		var body protocol.SequencedBody
		if env.Into(&body) == nil {
			if body.Seq > tb.BoardHead {
				tb.BoardHead = body.Seq
			}
			for _, op := range body.More {
				if op.Seq > tb.BoardHead {
					tb.BoardHead = op.Seq
				}
			}
		}
	}
	if len(tb.Events) >= 2*s.cap {
		// Amortized trim: compacting on every event past the cap would
		// copy the whole window per append — O(cap) on the replication
		// hot path. Letting the slice run to 2×cap and then cutting
		// back to cap copies cap events once per cap appends, so the
		// steady-state cost is one event-copy per event. Takeover only
		// needs the retained suffix, so briefly holding up to 2×cap-1
		// events is extra safety margin, never staleness.
		tb.Events = append(tb.Events[:0:0], tb.Events[len(tb.Events)-s.cap:]...)
	}
	if floor != nil {
		tb.Floor = floor
	}
}

// ApplyMembers records a group's replicated membership roster and chair.
func (s *ReplicaStore) ApplyMembers(groupID, chair string, members []protocol.NodeMemberInfo) {
	s.mu.Lock()
	defer s.mu.Unlock()
	tb := &s.part(groupID).tb
	tb.Chair = chair
	tb.Members = members
}

// ApplyMemberHome records a member's replicated home state (directory
// row + resume token) in their "~member" package.
func (s *ReplicaStore) ApplyMemberHome(info protocol.NodeMemberInfo, token string) {
	if info.ID == "" {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	tb := &s.part(grouplog.MemberKey(info.ID)).tb
	tb.Member = &info
	tb.Token = token
}

// DropMemberHome retracts a replicated member home — the home node
// expired the session and dropped their member log, so the replica
// must not adopt them back to life.
func (s *ReplicaStore) DropMemberHome(memberID string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.parts, grouplog.MemberKey(memberID))
}

// Has reports whether the store holds any replica state for a key —
// the adoption test: a node asked to serve a partition it does not
// primarily own adopts it exactly when a replica is present.
func (s *ReplicaStore) Has(key string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.parts[key]
	return ok
}

// Head returns the highest replicated GSeq for a key (0 when none) —
// what tests wait on to know replication caught up before a kill.
func (s *ReplicaStore) Head(key string) int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if r, ok := s.parts[key]; ok {
		return r.head
	}
	return 0
}

// Take removes and returns a key's package for takeover. The removal is
// what makes adoption idempotent: the second caller finds nothing and
// treats the partition as already live.
func (s *ReplicaStore) Take(key string) (protocol.TakeoverBody, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	r, ok := s.parts[key]
	if !ok {
		return protocol.TakeoverBody{}, false
	}
	delete(s.parts, key)
	return r.tb, true
}

// Keys lists the keys the store holds packages for — migration's
// enumeration of what a recovering node may be owed.
func (s *ReplicaStore) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.parts))
	for k := range s.parts {
		out = append(out, k)
	}
	return out
}

// MemberByToken finds the member whose replicated home holds the given
// resume token — the lookup a successor runs when a resume arrives for
// a token it never minted.
func (s *ReplicaStore) MemberByToken(token string) (string, bool) {
	if token == "" {
		return "", false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, r := range s.parts {
		if r.tb.Member != nil && r.tb.Token == token {
			return r.tb.Member.ID, true
		}
	}
	return "", false
}

// AdmitEpoch checks a takeover package's epoch against the newest this
// store has seen for the key, recording it when newer. It reports false
// for a stale package (epoch older than one already installed) — the
// rule that keeps repeated or racing migrations from resurrecting old
// state.
func (s *ReplicaStore) AdmitEpoch(key string, epoch int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if epoch < s.epochs[key] {
		return false
	}
	s.epochs[key] = epoch
	return true
}

// Install replaces a key's package wholesale — how a takeover package
// shipped by a migration lands on a node that does not natively own
// the key (it becomes replica state for a later failover).
func (s *ReplicaStore) Install(tb protocol.TakeoverBody) {
	r := &replica{tb: tb}
	r.tb.Events = append([]protocol.ReplicaEventBody(nil), tb.Events...)
	if n := len(tb.Events); n > 0 {
		r.head = tb.Events[n-1].GSeq
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.parts[tb.Key] = r
}
