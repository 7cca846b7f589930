package main

import (
	"fmt"
	"sync"

	"dmps/internal/protocol"
	"dmps/internal/swarm"
)

// checkOrder compares the line IDs one session applied to a group's
// board (got, in board order) with the IDs the senders had acknowledged
// for that group (want, in acknowledgement order; sends to one group
// are serialized, so this is the server's order too). It returns one
// violation per line that is missing, delivered more than once,
// delivered but never sent, or delivered out of order.
func checkOrder(want, got []int) []string {
	pos := make(map[int]int, len(want))
	for i, id := range want {
		pos[id] = i
	}
	var out []string
	seen := make(map[int]bool, len(got))
	last := -1
	for _, id := range got {
		p, ok := pos[id]
		switch {
		case !ok:
			out = append(out, fmt.Sprintf("line %d delivered but never sent", id))
			continue
		case seen[id]:
			out = append(out, fmt.Sprintf("line %d delivered twice", id))
			continue
		}
		seen[id] = true
		if p < last {
			out = append(out, fmt.Sprintf("line %d delivered out of order", id))
		}
		last = max(last, p)
	}
	for _, id := range want {
		if !seen[id] {
			out = append(out, fmt.Sprintf("line %d never delivered", id))
		}
	}
	return out
}

// floorLog keeps one record per (group, log position) of the logged
// floor events the sessions received, for swarm.CheckFloor. Members of a
// group all receive the same logged events; two members disagreeing
// about one position is itself a violation.
type floorLog struct {
	mu        sync.Mutex
	seen      map[string]swarm.FloorEvent
	conflicts []string
}

func newFloorLog() *floorLog { return &floorLog{seen: map[string]swarm.FloorEvent{}} }

// add records one logged floor event.
func (l *floorLog) add(group string, cseq, gseq int64, body protocol.FloorEventBody) {
	ev := swarm.FloorEvent{
		Group: group, CSeq: cseq, GSeq: gseq,
		Event: body.Event, Mode: body.Mode, Holder: body.Holder, Member: body.Member,
	}
	key := fmt.Sprintf("%s\x00%d", group, cseq)
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, ok := l.seen[key]; !ok {
		l.seen[key] = ev
	} else if prev != ev {
		l.conflicts = append(l.conflicts, fmt.Sprintf("group %s cseq %d seen as %+v and %+v", group, cseq, prev, ev))
	}
}

// check runs the floor-exclusivity invariant over everything recorded.
func (l *floorLog) check() []string {
	l.mu.Lock()
	evs := make([]swarm.FloorEvent, 0, len(l.seen))
	for _, ev := range l.seen {
		evs = append(evs, ev)
	}
	conflicts := append([]string(nil), l.conflicts...)
	l.mu.Unlock()
	return swarm.CheckFloor(evs, conflicts, 0).Violations
}
