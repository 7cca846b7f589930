package main

import (
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dmps/internal/workload"
)

// arrivals returns the Poisson offsets workload.Arrivals draws for seed
// at mean spacing, cut at the window's end.
func arrivals(seed int64, window, mean time.Duration) []time.Duration {
	n := int(window/mean)*3/2 + 16
	out := workload.Arrivals(seed, n, mean)
	cut := sort.Search(len(out), func(i int) bool { return out[i] >= window })
	return out[:cut]
}

// pacer drives a schedule open-loop and measures how well it kept up:
// how late each op started against its due instant, and how many ops
// were in flight (or waiting their turn) at once.
type pacer struct {
	start       time.Time
	late        []float64 // ms behind schedule, per op
	inflight    atomic.Int64
	inflightMax atomic.Int64
}

func newPacer(start time.Time, ops int) *pacer {
	return &pacer{start: start, late: make([]float64, ops)}
}

func (p *pacer) noteInflight(n int64) {
	for {
		m := p.inflightMax.Load()
		if n <= m || p.inflightMax.CompareAndSwap(m, n) {
			return
		}
	}
}

// fire starts fn(i, due) in its own goroutine at each op's due instant,
// whatever earlier ops are doing, and returns once every op has
// returned. time.Sleep wakes through the runtime's poller, which rounds
// waits to whole milliseconds, so an op starts up to 1 ms late even on
// an idle host; its latency still counts from the due instant.
func (p *pacer) fire(at []time.Duration, fn func(i int, due time.Time)) {
	var wg sync.WaitGroup
	for i, off := range at {
		due := p.start.Add(off)
		time.Sleep(time.Until(due))
		p.late[i] = ms(time.Since(due))
		p.noteInflight(p.inflight.Add(1))
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer p.inflight.Add(-1)
			fn(i, due)
		}()
	}
	wg.Wait()
}

// lane runs the ops one after another: each starts at its due instant
// or, if the previous op is still running, as soon as it returns. The
// in-flight figure is then the backlog — ops due but not yet started,
// plus the one running.
func (p *pacer) lane(at []time.Duration, fn func(i int)) {
	for i, off := range at {
		time.Sleep(time.Until(p.start.Add(off)))
		now := time.Since(p.start)
		p.late[i] = ms(now - off)
		p.noteInflight(int64(sort.Search(len(at), func(j int) bool { return at[j] > now }) - i))
		fn(i)
	}
}

// backlogGrew reports whether the generator fell steadily behind: the
// last tenth of the ops started much later than the first tenth, so the
// measured latencies describe a queue, not the offered rate.
func (p *pacer) backlogGrew() bool {
	n := len(p.late) / 10
	if n < 5 {
		return false
	}
	head := append([]float64(nil), p.late[:n]...)
	tail := append([]float64(nil), p.late[len(p.late)-n:]...)
	return median(tail) > 4*median(head)+20
}

// lineOp is one scheduled chat line or stroke of the lecture.
type lineOp struct {
	At     time.Duration
	Group  int
	Stroke bool
}

// Lecture shape: the chair chats into chatGroups groups, one line per
// chatGap per group on average — below one per board-coalescing
// interval (200 ms by default), so lines take
// the immediate fan-out path — and streams strokes in talk-spurts into
// strokeGroups more, one every strokeEvery while a spurt lasts — far
// above one per interval, so strokes ride the coalesced batches.
const (
	chatGroups   = 96
	strokeGroups = 4
	listeners    = 8
	chatGap      = 2 * time.Second
	strokeEvery  = 25 * time.Millisecond
	spurtHold    = time.Second
	spurtGap     = time.Second
)

// lectureSchedule is the lecture's ops over window for seed, sorted by
// due offset. Chat arrivals are one Poisson stream whose lines pick a
// chat group uniformly, so each group sees its own Poisson stream.
func lectureSchedule(seed int64, window time.Duration) []lineOp {
	mean := chatGap / chatGroups
	rng := rand.New(rand.NewSource(seed ^ 0x1ec7))
	var ops []lineOp
	for _, at := range arrivals(seed, window, mean) {
		ops = append(ops, lineOp{At: at, Group: rng.Intn(chatGroups)})
	}
	for k := range strokeGroups {
		n := int(window/(spurtHold+spurtGap)) + 8
		var t time.Duration
		for _, sp := range workload.TalkSpurts(seed+int64(k)+1, n, spurtHold, spurtGap) {
			for s := time.Duration(0); s < sp.Hold && t+s < window; s += strokeEvery {
				ops = append(ops, lineOp{At: t + s, Group: chatGroups + k, Stroke: true})
			}
			if t += sp.Hold + sp.Gap; t >= window {
				break
			}
		}
	}
	sort.SliceStable(ops, func(i, j int) bool { return ops[i].At < ops[j].At })
	return ops
}

// floorOp is one floor-churn op: a session asks for a group's floor.
type floorOp struct {
	At      time.Duration
	Session int
	Group   int
}

// Floor-churn shape: churnRatePerCPU requests per second per CPU spread
// uniformly over churnGroups equal-control groups and all sessions.
const (
	churnGroups     = 64
	churnRatePerCPU = 100
)

func churnSchedule(seed int64, window time.Duration, sessions, cpus int) []floorOp {
	mean := time.Duration(float64(time.Second) / float64(churnRatePerCPU*cpus))
	rng := rand.New(rand.NewSource(seed ^ 0xf100))
	var ops []floorOp
	for _, at := range arrivals(seed, window, mean) {
		ops = append(ops, floorOp{At: at, Session: rng.Intn(sessions), Group: rng.Intn(churnGroups)})
	}
	return ops
}

// rejoinOp is one rejoin cycle: the victim chats a line into Online,
// drops its link, and while it is away the next session chats one line
// into each of Missed; then the victim reconnects and catches up.
type rejoinOp struct {
	At     time.Duration
	Victim int
	Online int
	Missed []int
}

// Rejoin shape: rejoinRate cycles per second, each victim offline for
// rejoinGap. A cycle takes about 8 ms, so the lane stays under half
// busy and its backlog does not swing the latencies from run to run.
// Lines go to the rejoinGroups free-access groups in turn, so a group
// gets a line every 32 cycles, about 700 ms apart — almost never two
// inside one 200 ms board-coalescing interval — and a resume waits on
// session set-up and log reads, not on a coalescing tick (the lecture
// measures that).
const (
	rejoinGroups = 64
	rejoinMissed = 1
	rejoinLines  = 1 + rejoinMissed
	rejoinRate   = 45
	rejoinGap    = 2 * time.Millisecond
)

// rejoinCycle is cycle i's op, its lines numbered from i*rejoinLines.
func rejoinCycle(i, sessions int, at time.Duration) rejoinOp {
	op := rejoinOp{At: at, Victim: i % sessions, Online: i * rejoinLines % rejoinGroups}
	for j := range rejoinMissed {
		op.Missed = append(op.Missed, (i*rejoinLines+1+j)%rejoinGroups)
	}
	return op
}

// rejoinSchedule is the timed cycles, numbered from first (the warm-up
// cycles come before them).
func rejoinSchedule(seed int64, window time.Duration, sessions, first int) []rejoinOp {
	var ops []rejoinOp
	for i, at := range arrivals(seed, window, time.Second/rejoinRate) {
		ops = append(ops, rejoinCycle(first+i, sessions, at))
	}
	return ops
}
