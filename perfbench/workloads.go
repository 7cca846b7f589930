package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/floor"
	"dmps/internal/protocol"
)

// deliveryTimeout bounds every wait for a grant, a delivery or a
// catch-up; an op still waiting after it has failed.
const deliveryTimeout = 5 * time.Second

// work is one workload bound to a seed and a window length.
type work interface {
	// book is the line registry the sessions' taps fill (nil when the
	// workload sends no lines).
	book() *lineBook
	// setup dials and joins every session, takes the floors and runs a
	// closed-loop warm-up over every group.
	setup(e *env) error
	// offsets are the timed ops' due offsets from the window start.
	offsets() []time.Duration
	// drive runs the timed ops on p.
	drive(e *env, p *pacer)
	// settle waits, bounded, for deliveries still in flight.
	settle(e *env)
	// finish checks the outputs and fills the run's samples.
	finish(e *env, r *result)
}

// result is what one timed window produced.
type result struct {
	attempted int
	opErrors  int
	// violations are failed output checks; each counts as a failed op.
	violations []string
	// samples are the latency samples in ms, by name.
	samples map[string][]float64
	// arrivals counts lines reaching a session for the first time;
	// resumes and snapshots are rejoin's resume count and the catch-up
	// snapshots those resumes received.
	arrivals  int64
	resumes   int
	snapshots int64
}

// errCount counts op failures and reports the first few on stderr.
type errCount struct{ n atomic.Int64 }

func (c *errCount) fail(err error) {
	if n := c.n.Add(1); n <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
	}
}

// waitAll blocks until every session in ss has received every
// acknowledged line of the groups it joined, or the timeout passes.
func waitAll(e *env, ss []*session, groupsOf func(s *session) []int) {
	deadline := time.After(deliveryTimeout)
	for _, s := range ss {
		var ids []int
		for _, g := range groupsOf(s) {
			e.lines.groupMu[g].Lock()
			ids = append(ids, e.lines.order[g]...)
			e.lines.groupMu[g].Unlock()
		}
		select {
		case <-s.rx.expect(ids):
		case <-deadline:
			return
		}
	}
}

func allGroups(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// ---- lecture ----

// lecture: one chair holds the equal-control floor in every group and
// posts; eight receive-only listeners are the fan-out under test.
// Warm-up lines come first in the line-ID space (one per group), the
// scheduled lines after them.
type lecture struct {
	sched     []lineOp
	lines     *lineBook
	groups    []string
	chair     *session
	listeners []*session
	errs      errCount
}

func newLecture(seed int64, window time.Duration) *lecture {
	w := &lecture{sched: lectureSchedule(seed, window)}
	nGroups := chatGroups + strokeGroups
	w.lines = newLineBook(nGroups+len(w.sched), nGroups)
	for g := range nGroups {
		w.lines.group[g] = g
	}
	for i, op := range w.sched {
		w.lines.group[nGroups+i] = op.Group
		w.lines.timed[nGroups+i] = true
	}
	return w
}

func (w *lecture) book() *lineBook { return w.lines }

func (w *lecture) offsets() []time.Duration {
	out := make([]time.Duration, len(w.sched))
	for i, op := range w.sched {
		out[i] = op.At
	}
	return out
}

// post sends line id from the chair: a chat line, or a stroke in the
// stroke groups.
func (w *lecture) post(e *env, id int, from time.Time) error {
	g := w.lines.group[id]
	if g >= chatGroups {
		return w.lines.send(id, from, func(text string) error {
			return e.spans.time("client.annotate", func() error { return w.chair.c.Annotate(w.groups[g], "draw", text) })
		})
	}
	return w.lines.send(id, from, func(text string) error {
		return e.spans.time("client.chat", func() error { return w.chair.c.Chat(w.groups[g], text) })
	})
}

func (w *lecture) setup(e *env) error {
	nGroups := chatGroups + strokeGroups
	w.groups = e.f.keys("lecture-g", nGroups)
	var err error
	if w.chair, err = e.dial(e.f.keys("chair", 1)[0], "chair", 10, nil); err != nil {
		return err
	}
	for _, name := range e.f.keys("listener", listeners) {
		l, err := e.dial(name, "participant", 3, nil)
		if err != nil {
			return err
		}
		w.listeners = append(w.listeners, l)
	}
	if err := e.join(w.chair, w.groups); err != nil {
		return err
	}
	for _, g := range w.groups {
		dec, err := w.chair.c.RequestFloor(g, floor.EqualControl, "")
		if err != nil || !dec.Granted {
			return fmt.Errorf("chair floor in %s: granted=%v err=%v", g, dec.Granted, err)
		}
	}
	for _, l := range w.listeners {
		if err := e.join(l, w.groups); err != nil {
			return err
		}
	}
	for id := range nGroups {
		if err := w.post(e, id, time.Now()); err != nil {
			return fmt.Errorf("warm-up line %d: %w", id, err)
		}
	}
	return w.waitListeners(e)
}

func (w *lecture) waitListeners(e *env) error {
	ids := allGroups(chatGroups + strokeGroups)
	waitAll(e, w.listeners, func(*session) []int { return ids })
	for _, l := range w.listeners {
		for _, g := range ids {
			for _, id := range w.lines.order[g] {
				if l.rx.firstAt(id) == 0 {
					return fmt.Errorf("line %d never reached %s", id, l.name)
				}
			}
		}
	}
	return nil
}

func (w *lecture) drive(e *env, p *pacer) {
	base := chatGroups + strokeGroups
	p.fire(w.offsets(), func(i int, due time.Time) {
		if err := w.post(e, base+i, due); err != nil {
			w.errs.fail(err)
		}
	})
}

func (w *lecture) settle(e *env) {
	ids := allGroups(chatGroups + strokeGroups)
	waitAll(e, w.listeners, func(*session) []int { return ids })
}

func (w *lecture) finish(e *env, r *result) {
	r.attempted = len(w.sched)
	r.opErrors = int(w.errs.n.Load())
	ids := allGroups(chatGroups + strokeGroups)
	r.violations = append(r.violations, e.checkBoards(w.groups, func(s *session) []int {
		if s == w.chair {
			return nil
		}
		return ids
	})...)
	for _, l := range w.listeners {
		r.arrivals += l.rx.arrivals
		for id, timed := range w.lines.timed {
			sent := w.lines.sentAt[id].Load()
			at := l.rx.firstAt(id)
			if !timed || sent == 0 || at == 0 {
				continue
			}
			name := "prop"
			if w.lines.group[id] >= chatGroups {
				name = "stroke"
			}
			r.add(name, sent, at)
		}
	}
}

// ---- floor-churn ----

// churn: every session asks for the equal-control floor of random
// groups and, once granted, releases it at once. Requests by different
// sessions for one group queue behind its holder; one session's ops on
// one group run one at a time, as a single user's would.
type churn struct {
	sched    []floorOp // warm-up ops first, then the timed ops
	warm     int
	n        int
	groups   []string
	gidx     map[string]int
	byMember map[string]int

	pairMu  []sync.Mutex // per (session, group)
	wake    []chan int64 // promotion instants for a queued request, per pair
	doneOf  [][]int      // op indexes released, per pair, in order
	dueAt   []int64
	grantAt []int64

	peerMu []sync.Mutex
	peer   [][][]cseqAt // observer → pair → releases of that pair it saw
	errs   errCount
}

// cseqAt is one logged floor event's position and arrival instant.
type cseqAt struct{ cseq, at int64 }

func newChurn(seed int64, window time.Duration, cpus int) *churn {
	n := max(2, cpus)
	w := &churn{n: n}
	for s := range n {
		for g := range churnGroups {
			w.sched = append(w.sched, floorOp{Session: s, Group: g})
		}
	}
	w.warm = len(w.sched)
	w.sched = append(w.sched, churnSchedule(seed, window, n, cpus)...)
	pairs := n * churnGroups
	w.pairMu = make([]sync.Mutex, pairs)
	w.wake = make([]chan int64, pairs)
	for i := range w.wake {
		w.wake[i] = make(chan int64, 1)
	}
	w.doneOf = make([][]int, pairs)
	w.dueAt = make([]int64, len(w.sched))
	w.grantAt = make([]int64, len(w.sched))
	w.peerMu = make([]sync.Mutex, n)
	w.peer = make([][][]cseqAt, n)
	for i := range w.peer {
		w.peer[i] = make([][]cseqAt, pairs)
	}
	return w
}

func (w *churn) book() *lineBook { return nil }

func (w *churn) offsets() []time.Duration {
	out := make([]time.Duration, 0, len(w.sched)-w.warm)
	for _, op := range w.sched[w.warm:] {
		out = append(out, op.At)
	}
	return out
}

// onFloor runs in session s's read loop for every logged floor event.
// A release or pass naming s the next holder wakes s's queued request;
// a release by another member is recorded as s's view of that member's
// op ending.
func (w *churn) onFloor(s *session, msg protocol.Message, body protocol.FloorEventBody, now int64) {
	gi, ok := w.gidx[msg.Group]
	if !ok {
		return
	}
	me := s.member()
	if (body.Event == "released" || body.Event == "passed") && body.Holder == me && body.Member != me {
		select {
		case w.wake[s.idx*churnGroups+gi] <- now:
		default:
		}
	}
	gs, ok := w.byMember[body.Member]
	if body.Event != "released" || !ok || gs == s.idx {
		return
	}
	pair := gs*churnGroups + gi
	w.peerMu[s.idx].Lock()
	w.peer[s.idx][pair] = append(w.peer[s.idx][pair], cseqAt{msg.CSeq, now})
	w.peerMu[s.idx].Unlock()
}

func (w *churn) setup(e *env) error {
	w.groups = e.f.keys("churn-g", churnGroups)
	w.gidx = map[string]int{}
	for i, g := range w.groups {
		w.gidx[g] = i
	}
	w.byMember = map[string]int{}
	for _, name := range e.f.keys("member", w.n) {
		s, err := e.dial(name, "participant", 3, w.onFloor)
		if err != nil {
			return err
		}
		w.byMember[s.member()] = s.idx
	}
	for _, s := range e.ss {
		if err := e.join(s, w.groups); err != nil {
			return err
		}
	}
	for i := range w.warm {
		if !w.op(e, i, time.Now()) {
			return errors.New("warm-up floor op failed")
		}
	}
	return nil
}

// op requests the floor, waits for the grant and releases it. It
// reports whether every step succeeded.
func (w *churn) op(e *env, i int, due time.Time) bool {
	op := w.sched[i]
	s := e.ss[op.Session]
	g := w.groups[op.Group]
	pair := op.Session*churnGroups + op.Group
	w.pairMu[pair].Lock()
	defer w.pairMu[pair].Unlock()
	w.dueAt[i] = due.UnixNano()
	select {
	case <-w.wake[pair]:
	default:
	}
	var dec protocol.FloorDecisionBody
	err := e.spans.time("client.request_floor", func() error {
		var err error
		dec, err = s.c.RequestFloor(g, floor.EqualControl, "")
		return err
	})
	var at int64
	switch {
	case err != nil:
		w.errs.fail(fmt.Errorf("request %s: %w", g, err))
		return false
	case dec.Granted:
		at = time.Now().UnixNano()
	case dec.QueuePosition > 0:
		select {
		case at = <-w.wake[pair]:
		case <-time.After(deliveryTimeout):
			w.errs.fail(fmt.Errorf("grant in %s never came", g))
			return false
		}
	default:
		w.errs.fail(fmt.Errorf("request %s: neither granted nor queued", g))
		return false
	}
	w.grantAt[i] = at
	if err := e.spans.time("client.release_floor", func() error { return s.c.ReleaseFloor(g) }); err != nil {
		w.errs.fail(fmt.Errorf("release %s: %w", g, err))
		return false
	}
	w.doneOf[pair] = append(w.doneOf[pair], i)
	return true
}

func (w *churn) drive(e *env, p *pacer) {
	p.fire(w.offsets(), func(i int, due time.Time) { w.op(e, w.warm+i, due) })
}

// settle waits until every peer has seen every release, or the timeout.
func (w *churn) settle(e *env) {
	deadline := time.Now().Add(deliveryTimeout)
	for time.Now().Before(deadline) {
		if len(w.peerGaps()) == 0 {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// peerViews returns observer o's distinct sightings of pair's releases
// in log order.
func (w *churn) peerViews(o, pair int) []cseqAt {
	w.peerMu[o].Lock()
	v := append([]cseqAt(nil), w.peer[o][pair]...)
	w.peerMu[o].Unlock()
	sort.Slice(v, func(i, j int) bool { return v[i].cseq < v[j].cseq })
	out := v[:0]
	for i, x := range v {
		if i == 0 || x.cseq != v[i-1].cseq {
			out = append(out, x)
		}
	}
	return out
}

// peerGaps lists every (observer, pair) whose sightings do not match
// the releases the pair's owner made one for one.
func (w *churn) peerGaps() []string {
	var out []string
	for o := range w.n {
		for pair := range w.doneOf {
			if pair/churnGroups == o {
				continue
			}
			w.pairMu[pair].Lock()
			done := len(w.doneOf[pair])
			w.pairMu[pair].Unlock()
			if seen := len(w.peerViews(o, pair)); seen != done {
				out = append(out, fmt.Sprintf("session %d saw %d of %d releases by session %d in %s",
					o, seen, done, pair/churnGroups, w.groups[pair%churnGroups]))
			}
		}
	}
	return out
}

func (w *churn) finish(e *env, r *result) {
	r.attempted = len(w.sched) - w.warm
	r.opErrors = int(w.errs.n.Load())
	r.violations = append(r.violations, w.peerGaps()...)
	for i := w.warm; i < len(w.sched); i++ {
		if w.grantAt[i] != 0 {
			r.add("grant", w.dueAt[i], w.grantAt[i])
		}
	}
	for o := range w.n {
		for pair, ops := range w.doneOf {
			if pair/churnGroups == o {
				continue
			}
			views := w.peerViews(o, pair)
			if len(views) != len(ops) {
				continue // already a violation
			}
			for k, i := range ops {
				if i >= w.warm {
					r.add("handoff", w.dueAt[i], views[k].at)
				}
			}
			r.arrivals += int64(len(views))
		}
	}
}

// ---- rejoin ----

// rejoin: sessions in free-access groups take turns losing their link.
// Each cycle runs in one lane, because it needs one session offline and
// the next one online: the victim chats, drops, the next session chats
// the lines the victim misses, and after a fixed gap the victim
// reconnects and catches up through backfill. Warm-up cycles (one per
// session) come first in the op and line-ID spaces.
type rejoin struct {
	sched  []rejoinOp
	warm   int
	n      int
	lines  *lineBook
	groups []string

	resume, reconnect, catchup []float64
	snapshots                  int64
	errs                       errCount
}

func newRejoin(seed int64, window time.Duration, cpus int) *rejoin {
	n := max(2, cpus)
	w := &rejoin{n: n}
	for v := range n {
		w.sched = append(w.sched, rejoinCycle(v, n, 0))
	}
	w.warm = n
	w.sched = append(w.sched, rejoinSchedule(seed, window, n, n)...)
	w.lines = newLineBook(len(w.sched)*rejoinLines, rejoinGroups)
	for i, op := range w.sched {
		w.lines.group[i*rejoinLines] = op.Online
		w.lines.author[i*rejoinLines] = op.Victim
		for j, g := range op.Missed {
			w.lines.group[i*rejoinLines+1+j] = g
			w.lines.author[i*rejoinLines+1+j] = (op.Victim + 1) % n
		}
		for j := range rejoinLines {
			w.lines.timed[i*rejoinLines+j] = i >= w.warm
		}
	}
	return w
}

func (w *rejoin) book() *lineBook { return w.lines }

func (w *rejoin) offsets() []time.Duration {
	out := make([]time.Duration, 0, len(w.sched)-w.warm)
	for _, op := range w.sched[w.warm:] {
		out = append(out, op.At)
	}
	return out
}

func (w *rejoin) setup(e *env) error {
	w.groups = e.f.keys("rejoin-g", rejoinGroups)
	for _, name := range e.f.keys("student", w.n) {
		s, err := e.dial(name, "participant", 3, nil)
		if err != nil {
			return err
		}
		if err := e.join(s, w.groups); err != nil {
			return err
		}
	}
	for i := range w.warm {
		if !w.op(e, i) {
			return errors.New("warm-up rejoin cycle failed")
		}
	}
	return nil
}

func (w *rejoin) chat(e *env, s *session, id int, from time.Time) error {
	return w.lines.send(id, from, func(text string) error {
		return e.spans.time("client.chat", func() error { return s.c.Chat(w.groups[w.lines.group[id]], text) })
	})
}

// op runs one cycle and reports whether every step succeeded.
func (w *rejoin) op(e *env, i int) bool {
	op := w.sched[i]
	v, u := e.ss[op.Victim], e.ss[(op.Victim+1)%w.n]
	base := i * rejoinLines
	// Lines are timed from their send: ops wait in the lane behind the
	// cycle before, and bench.late_p99_ms reports that wait on its own.
	if err := w.chat(e, v, base, time.Now()); err != nil {
		w.errs.fail(fmt.Errorf("online chat: %w", err))
		return false
	}
	v.c.Drop()
	back := time.Now().Add(rejoinGap)
	ok := true
	for j := range op.Missed {
		if err := w.chat(e, u, base+1+j, time.Now()); err != nil {
			w.errs.fail(fmt.Errorf("chat while peer offline: %w", err))
			ok = false // the victim still reconnects, for the cycles after
		}
	}
	time.Sleep(time.Until(back))
	// Every line sent so far that has not reached the victim — this
	// cycle's, and any of the last cycles' still in flight at the drop.
	var ids []int
	for id := max(0, base-w.n*rejoinLines); id < base+rejoinLines; id++ {
		ids = append(ids, id)
	}
	caught := v.rx.expect(ids)
	v.rx.mu.Lock()
	snaps := v.rx.snapshots
	v.rx.mu.Unlock()
	t0 := time.Now()
	if err := v.c.Reconnect(); err != nil {
		w.errs.fail(fmt.Errorf("reconnect: %w", err))
		return false
	}
	t1 := time.Now()
	if !ok {
		return false
	}
	select {
	case <-caught:
	case <-time.After(deliveryTimeout):
		w.errs.fail(fmt.Errorf("missed lines never reached %s", v.name))
		return false
	}
	done := v.rx.doneAt()
	if i >= w.warm {
		w.resume = append(w.resume, float64(done-t0.UnixNano())/1e6)
		w.reconnect = append(w.reconnect, ms(t1.Sub(t0)))
		w.catchup = append(w.catchup, max(0, float64(done-t1.UnixNano())/1e6))
		v.rx.mu.Lock()
		w.snapshots += v.rx.snapshots - snaps
		v.rx.mu.Unlock()
	}
	return true
}

func (w *rejoin) drive(e *env, p *pacer) {
	p.lane(w.offsets(), func(i int) { w.op(e, w.warm+i) })
}

func (w *rejoin) settle(e *env) {
	ids := allGroups(rejoinGroups)
	waitAll(e, e.ss, func(*session) []int { return ids })
}

func (w *rejoin) finish(e *env, r *result) {
	r.attempted = len(w.sched) - w.warm
	r.opErrors = int(w.errs.n.Load())
	ids := allGroups(rejoinGroups)
	r.violations = append(r.violations, e.checkBoards(w.groups, func(*session) []int { return ids })...)
	r.samples["resume"] = w.resume
	r.resumes = len(w.resume)
	r.snapshots = w.snapshots
	e.spans.mu.Lock()
	if e.spans.on {
		e.spans.d["client.reconnect"] = w.reconnect
		e.spans.d["client.catchup"] = w.catchup
	}
	e.spans.mu.Unlock()
	for _, s := range e.ss {
		r.arrivals += s.rx.arrivals
		for id, timed := range w.lines.timed {
			sent, at := w.lines.sentAt[id].Load(), s.rx.firstAt(id)
			if !timed || sent == 0 || at == 0 || w.lines.author[id] == s.idx {
				continue
			}
			// A missed line reaches its victim through the resume, which
			// is timed on its own.
			if id%rejoinLines != 0 && w.sched[id/rejoinLines].Victim == s.idx {
				continue
			}
			r.add("prop", sent, at)
		}
	}
}
