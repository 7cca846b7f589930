package main

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/client"
	"dmps/internal/protocol"
	"dmps/internal/transport"
)

// lineBook registers every chat line and stroke a run sends. A line's
// ID is its index here and travels in the line's text as "L<id>", so a
// receiving session's tap can find the instant its latency is timed
// from. Sends to one group are serialized under that group's lock, so
// the acknowledgement order recorded per group is the server's board
// order — the reference the delivery check compares every board to.
type lineBook struct {
	sentAt []atomic.Int64 // unix nanos each line's latency is timed from
	group  []int          // group index of each line
	author []int          // sending session of each line
	timed  []bool         // the line was due inside the timed window

	groupMu []sync.Mutex
	order   [][]int // acknowledged line IDs per group, in order
}

func newLineBook(lines, groups int) *lineBook {
	return &lineBook{
		sentAt:  make([]atomic.Int64, lines),
		group:   make([]int, lines),
		author:  make([]int, lines),
		timed:   make([]bool, lines),
		groupMu: make([]sync.Mutex, groups),
		order:   make([][]int, groups),
	}
}

func lineText(id int) string { return "L" + strconv.Itoa(id) }

func lineID(text string) (int, bool) {
	s, ok := strings.CutPrefix(text, "L")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(s)
	return id, err == nil
}

// send posts line id through post, timing it from from, and records it
// in its group's order once acknowledged.
func (b *lineBook) send(id int, from time.Time, post func(text string) error) error {
	g := b.group[id]
	b.groupMu[g].Lock()
	defer b.groupMu[g].Unlock()
	b.sentAt[id].Store(from.UnixNano())
	if err := post(lineText(id)); err != nil {
		return err
	}
	b.order[g] = append(b.order[g], id)
	return nil
}

// receiver records, for one session, when each line first reached it,
// and lets a waiter block until a chosen set of lines has arrived.
type receiver struct {
	mu        sync.Mutex
	first     []int64 // unix nanos of first arrival per line ID, 0 = not yet
	arrivals  int64
	snapshots int64

	want   map[int]bool
	wantCh chan struct{}
	wantAt int64
}

func (r *receiver) saw(id int, now int64) {
	if id < 0 || id >= len(r.first) {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.first[id] != 0 {
		return
	}
	r.first[id] = now
	r.arrivals++
	if r.want[id] {
		delete(r.want, id)
		if len(r.want) == 0 {
			r.wantAt = now
			close(r.wantCh)
			r.want = nil
		}
	}
}

// expect arms the waiter for the lines among ids that have not arrived
// and returns a channel closed once they all have.
func (r *receiver) expect(ids []int) <-chan struct{} {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.wantCh = make(chan struct{})
	r.want = map[int]bool{}
	for _, id := range ids {
		if r.first[id] == 0 {
			r.want[id] = true
		}
	}
	if len(r.want) == 0 {
		r.want = nil
		r.wantAt = time.Now().UnixNano()
		close(r.wantCh)
	}
	return r.wantCh
}

// doneAt is the arrival instant of the last line the closed waiter
// was waiting for.
func (r *receiver) doneAt() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wantAt
}

func (r *receiver) firstAt(id int) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.first[id]
}

// floorHook sees every logged floor event a session receives.
type floorHook func(s *session, msg protocol.Message, body protocol.FloorEventBody, now int64)

// session is one client connection of the load generator.
type session struct {
	idx  int
	name string
	c    *client.Client
	rx   *receiver

	mu sync.Mutex
	id string // member ID, set once dialled

	floors *floorLog
	onFl   floorHook
}

func (s *session) member() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.id
}

// tap is the session's client.Config.OnEvent hook. It runs in the
// client's read loop, so it only decodes and records.
func (s *session) tap(msg protocol.Message) {
	now := time.Now().UnixNano()
	switch msg.Type {
	case protocol.TChatEvent, protocol.TAnnotateEvent:
		var body protocol.SequencedBody
		if msg.Into(&body) != nil {
			return
		}
		s.sawOp(body, now)
		for _, more := range body.More {
			s.sawOp(more, now)
		}
	case protocol.TSnapshot:
		var body protocol.SnapshotBody
		if msg.Into(&body) != nil {
			return
		}
		s.rx.mu.Lock()
		s.rx.snapshots++
		s.rx.mu.Unlock()
		for _, op := range body.Board {
			s.sawOp(op, now)
		}
	case protocol.TFloorEvent:
		if msg.GSeq == 0 || msg.Group == "" {
			return
		}
		var body protocol.FloorEventBody
		if msg.Into(&body) != nil {
			return
		}
		if s.floors != nil {
			s.floors.add(msg.Group, msg.CSeq, msg.GSeq, body)
		}
		if s.onFl != nil {
			s.onFl(s, msg, body, now)
		}
	}
}

func (s *session) sawOp(op protocol.SequencedBody, now int64) {
	if id, ok := lineID(op.Data); ok {
		s.rx.saw(id, now)
	}
}

// env is one booted fleet plus the load generator's sessions and
// bookkeeping for a single setup of one workload.
type env struct {
	f      *fleet
	traced bool
	spans  *spanLog
	floors *floorLog
	lines  *lineBook
	ss     []*session
}

// dial connects one session through the router and registers it.
func (e *env) dial(name, role string, prio int, onFl floorHook) (*session, error) {
	s := &session{idx: len(e.ss), name: name, floors: e.floors, onFl: onFl}
	nLines := 0
	if e.lines != nil {
		nLines = len(e.lines.group)
	}
	s.rx = &receiver{first: make([]int64, nLines)}
	err := e.spans.time("client.dial", func() error {
		c, err := client.Dial(client.Config{
			Network: transport.TCP{}, Addr: e.f.addr(),
			Name: name, Role: role, Priority: prio,
			OnEvent: s.tap, Trace: e.traced,
		})
		s.c = c
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", name, err)
	}
	s.mu.Lock()
	s.id = s.c.MemberID()
	s.mu.Unlock()
	e.ss = append(e.ss, s)
	return s, nil
}

// join joins s to every group, in order.
func (e *env) join(s *session, groups []string) error {
	for _, g := range groups {
		if err := e.spans.time("client.join", func() error { return s.c.Join(g) }); err != nil {
			return fmt.Errorf("%s join %s: %w", s.name, g, err)
		}
	}
	return nil
}

// close says goodbye on every session.
func (e *env) close() {
	for _, s := range e.ss {
		s.c.Close()
	}
}

// checkBoards compares every session's board replica of every group
// it joined with the acknowledged send order.
func (e *env) checkBoards(groups []string, members func(s *session) []int) []string {
	var out []string
	for _, s := range e.ss {
		for _, gi := range members(s) {
			var got []int
			for _, op := range s.c.Board(groups[gi]).Ops() {
				if id, ok := lineID(op.Data); ok {
					got = append(got, id)
				} else {
					got = append(got, -1)
				}
			}
			for _, v := range checkOrder(e.lines.order[gi], got) {
				out = append(out, fmt.Sprintf("%s in %s: %s", s.name, groups[gi], v))
			}
		}
	}
	return out
}

// spanLog keeps the benchmark's own spans around client calls: one
// duration list per call name. It records only in traced runs, so the
// untraced runs that give the end-to-end metrics carry no extra work.
type spanLog struct {
	on bool
	mu sync.Mutex
	d  map[string][]float64 // call name → durations in ms
}

func newSpanLog(on bool) *spanLog { return &spanLog{on: on, d: map[string][]float64{}} }

// time runs fn, recording its duration under name when on.
func (l *spanLog) time(name string, fn func() error) error {
	if !l.on {
		return fn()
	}
	t0 := time.Now()
	err := fn()
	l.add(name, time.Since(t0))
	return err
}

func (l *spanLog) add(name string, d time.Duration) {
	if !l.on {
		return
	}
	l.mu.Lock()
	l.d[name] = append(l.d[name], ms(d))
	l.mu.Unlock()
}

func (l *spanLog) p50(name string) (float64, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	xs := l.d[name]
	return median(xs), len(xs)
}

// reset drops the spans recorded so far (set-up calls other than dial
// and join are not part of the window's per-call figures).
func (l *spanLog) reset(keep ...string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	kept := map[string][]float64{}
	for _, k := range keep {
		kept[k] = l.d[k]
	}
	l.d = kept
}
