package main

import (
	"bufio"
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dmps/internal/trace"
)

// recentRing is the size of each tracing plane's recent-trace ring; the
// ledger polls often enough that fewer traces than this complete
// between two polls, and counts the polls where more did.
const (
	recentRing = 256
	pollEvery  = 100 * time.Millisecond
)

type spanKey struct {
	stage      string
	start, dur int64
}

// ledger collects, during a traced window, every span the router's and
// the nodes' tracing planes assemble, deduplicated by trace ID and span,
// plus the deepest session send queue seen.
type ledger struct {
	f    *fleet
	stop chan struct{}
	done chan struct{}

	mu         sync.Mutex
	spans      []map[uint64]map[spanKey]bool // per plane: trace → spans
	lastTraces []int64                       // traces completed by the last poll, per plane; nil before the first
	overruns   int
	queueMax   int
}

func startLedger(f *fleet) *ledger {
	n := len(f.planes())
	l := &ledger{f: f, stop: make(chan struct{}), done: make(chan struct{}),
		spans: make([]map[uint64]map[spanKey]bool, n)}
	for i := range l.spans {
		l.spans[i] = map[uint64]map[spanKey]bool{}
	}
	// Two sweeps finalize the set-up's traces, so the baseline poll
	// below already counts them and they cannot pass for an overrun.
	for _, p := range f.planes() {
		p.Sweep()
		p.Sweep()
	}
	l.poll()
	go func() {
		defer close(l.done)
		t := time.NewTicker(pollEvery)
		defer t.Stop()
		for {
			select {
			case <-l.stop:
				return
			case <-t.C:
				l.poll()
			}
		}
	}()
	return l
}

// finish stops the poller and takes a last poll.
func (l *ledger) finish() {
	close(l.stop)
	<-l.done
	l.poll()
}

func (l *ledger) poll() {
	l.mu.Lock()
	defer l.mu.Unlock()
	first := l.lastTraces == nil
	if first {
		l.lastTraces = make([]int64, len(l.spans))
	}
	for i, p := range l.f.planes() {
		page := p.Snapshot(0)
		if !first && page.Traces-l.lastTraces[i] > recentRing {
			l.overruns++
		}
		l.lastTraces[i] = page.Traces
		for _, ops := range [][]*trace.OpTrace{page.Recent, page.Slow, page.Pending} {
			for _, op := range ops {
				set := l.spans[i][op.Trace]
				if set == nil {
					set = map[spanKey]bool{}
					l.spans[i][op.Trace] = set
				}
				for _, s := range op.Spans {
					set[spanKey{s.Stage, s.StartNanos, s.DurNanos}] = true
				}
			}
		}
	}
	for _, n := range l.f.nodes {
		for _, st := range n.SessionStats() {
			l.queueMax = max(l.queueMax, st.QueueDepth)
		}
	}
}

// stageTimes are one stage's span durations and self times in µs.
type stageTimes struct{ dur, self []float64 }

// stages computes, for the spans that started inside [from, to), each
// span's duration and self time: the duration minus the part of it
// that shorter spans of the same trace on the same process cover.
func (l *ledger) stages(from, to time.Time) map[string]*stageTimes {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := map[string]*stageTimes{}
	for _, traces := range l.spans {
		for _, set := range traces {
			spans := make([]spanKey, 0, len(set))
			for k := range set {
				spans = append(spans, k)
			}
			sort.Slice(spans, func(i, j int) bool {
				if spans[i].start != spans[j].start {
					return spans[i].start < spans[j].start
				}
				return spans[i].dur > spans[j].dur
			})
			for i, s := range spans {
				if s.start < from.UnixNano() || s.start >= to.UnixNano() {
					continue
				}
				st := out[s.stage]
				if st == nil {
					st = &stageTimes{}
					out[s.stage] = st
				}
				st.dur = append(st.dur, float64(s.dur)/1e3)
				st.self = append(st.self, float64(s.dur-covered(spans, i))/1e3)
			}
		}
	}
	return out
}

// covered returns how much of spans[i]'s interval the spans nested in
// it cover (their union, so overlapping children count once). spans is
// sorted by start, longer first on ties, so a child sorts after its
// parent.
func covered(spans []spanKey, i int) int64 {
	p := spans[i]
	end := p.start + p.dur
	var total, curS, curE int64
	open := false
	for _, c := range spans[i+1:] {
		if c.start >= end {
			break
		}
		if c.start+c.dur > end {
			continue
		}
		switch {
		case !open:
			curS, curE, open = c.start, c.start+c.dur, true
		case c.start > curE:
			total += curE - curS
			curS, curE = c.start, c.start+c.dur
		default:
			curE = max(curE, c.start+c.dur)
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// counters is one reading of every process's metrics, summed over
// processes by series (name plus labels).
type counters map[string]float64

// scrape reads every registry of f. The per-process mean messages per
// flush is turned into a message count so that it sums and subtracts.
func scrape(f *fleet) counters {
	out := counters{}
	for _, reg := range f.regs {
		var buf bytes.Buffer
		if err := reg.WritePrometheus(&buf); err != nil {
			continue
		}
		one := map[string]float64{}
		sc := bufio.NewScanner(&buf)
		sc.Buffer(make([]byte, 64*1024), 1024*1024)
		for sc.Scan() {
			line := sc.Text()
			if line == "" || line[0] == '#' {
				continue
			}
			i := strings.LastIndexByte(line, ' ')
			if i < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[i+1:], 64)
			if err != nil {
				continue
			}
			one[line[:i]] = v
		}
		one["wire_msgs_out"] = one["dmps_wire_msgs_per_flush"] * one["dmps_wire_flushes_total"]
		for k, v := range one {
			out[k] += v
		}
	}
	return out
}

// delta returns the growth of every series containing substr since c0.
func (c counters) delta(c0 counters, substr string) float64 {
	var d float64
	for k, v := range c {
		if strings.Contains(k, substr) {
			d += v - c0[k]
		}
	}
	return d
}

// stageMean is the exact mean of a stage's dmps_stage_seconds
// observations between two readings, in µs, from the histogram's sum
// and count, and that count.
func stageMean(c1, c0 counters, stage string) (float64, int) {
	sel := `{stage="` + stage + `"}`
	n := c1.delta(c0, "dmps_stage_seconds_count"+sel)
	if n == 0 {
		return 0, 0
	}
	return c1.delta(c0, "dmps_stage_seconds_sum"+sel) / n * 1e6, int(n)
}

// nodeStats are the public per-node counters the ledger differences.
type nodeStats struct {
	boardOps, boardEvents, marked, logged, walBytes, drops int64
	routedUp, relayedDown                                  int64
}

func readNodeStats(f *fleet) nodeStats {
	var st nodeStats
	for _, n := range f.nodes {
		ops, events := n.BoardStormStats()
		marked, logged := n.CoalesceStats()
		st.boardOps += ops
		st.boardEvents += events
		st.marked += marked
		st.logged += logged
		st.walBytes += n.WALStats().Bytes
		for _, ss := range n.SessionStats() {
			st.drops += ss.Drops
		}
	}
	st.routedUp, st.relayedDown = f.router.Routed()
	return st
}
