package main

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"dmps/internal/protocol"
)

func TestQuantileKnownVector(t *testing.T) {
	xs := []float64{7, 1, 10, 4, 2, 9, 3, 8, 6, 5}
	for _, c := range []struct{ q, want float64 }{
		// statistics.quantiles(range(1, 11), n=4, method="inclusive")
		// gives 3.25, 5.5, 7.75.
		{0, 1}, {0.25, 3.25}, {0.5, 5.5}, {0.75, 7.75}, {0.99, 9.91}, {1, 10},
	} {
		if got := quantile(xs, c.q); abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := quantile(nil, 0.5); got != 0 {
		t.Errorf("quantile of no samples = %v, want 0", got)
	}
	if got := quantile([]float64{3}, 0.99); got != 3 {
		t.Errorf("quantile of one sample = %v, want 3", got)
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func TestSchedulesAreSeeded(t *testing.T) {
	const window = 5 * time.Second
	for _, c := range []struct {
		name string
		gen  func(seed int64) any
	}{
		{"lecture", func(seed int64) any { return lectureSchedule(seed, window) }},
		{"floor-churn", func(seed int64) any { return churnSchedule(seed, window, 2, 2) }},
		{"rejoin", func(seed int64) any { return rejoinSchedule(seed, window, 2, 2) }},
	} {
		a, b, other := c.gen(42), c.gen(42), c.gen(43)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: one seed gave two schedules", c.name)
		}
		if reflect.DeepEqual(a, other) {
			t.Errorf("%s: seeds 42 and 43 gave the same schedule", c.name)
		}
		if reflect.ValueOf(a).Len() == 0 {
			t.Errorf("%s: empty schedule", c.name)
		}
	}
}

func TestLectureScheduleShape(t *testing.T) {
	ops := lectureSchedule(1, 20*time.Second)
	chats, strokes := 0, 0
	for i, op := range ops {
		if i > 0 && op.At < ops[i-1].At {
			t.Fatalf("op %d due before op %d", i, i-1)
		}
		if op.At >= 20*time.Second {
			t.Fatalf("op %d due at %v, past the window", i, op.At)
		}
		if op.Stroke != (op.Group >= chatGroups) {
			t.Fatalf("op %d: stroke=%v in group %d", i, op.Stroke, op.Group)
		}
		if op.Stroke {
			strokes++
		} else {
			chats++
		}
	}
	// One line per chatGap per group: 20 s × 96 / 2 s = 960 expected.
	if chats < 800 || chats > 1120 {
		t.Errorf("%d chat lines in 20 s, want about 960", chats)
	}
	if strokes == 0 {
		t.Error("no strokes scheduled")
	}
}

func TestCheckOrderCatchesPlantedFaults(t *testing.T) {
	want := []int{10, 11, 12, 13}
	for _, c := range []struct {
		name string
		got  []int
		find string
	}{
		{"clean", []int{10, 11, 12, 13}, ""},
		{"dropped line", []int{10, 11, 13}, "line 12 never delivered"},
		{"out-of-order line", []int{10, 12, 11, 13}, "line 11 delivered out of order"},
		{"duplicate line", []int{10, 11, 11, 12, 13}, "line 11 delivered twice"},
		{"stray line", []int{10, 11, 12, 13, 99}, "line 99 delivered but never sent"},
	} {
		v := checkOrder(want, c.got)
		if c.find == "" {
			if len(v) != 0 {
				t.Errorf("%s: violations %v, want none", c.name, v)
			}
			continue
		}
		if len(v) != 1 || v[0] != c.find {
			t.Errorf("%s: violations %v, want [%s]", c.name, v, c.find)
		}
	}
}

func TestFloorCheckCatchesDoubleGrant(t *testing.T) {
	ev := func(event, member, holder string) protocol.FloorEventBody {
		return protocol.FloorEventBody{Mode: "equal_control", Event: event, Member: member, Holder: holder}
	}
	clean := newFloorLog()
	clean.add("g", 1, 1, ev("granted", "a#1", "a#1"))
	clean.add("g", 2, 2, ev("queued", "b#2", "a#1"))
	clean.add("g", 3, 3, ev("released", "a#1", "b#2"))
	clean.add("g", 4, 4, ev("released", "b#2", ""))
	if v := clean.check(); len(v) != 0 {
		t.Errorf("clean log: violations %v", v)
	}

	double := newFloorLog()
	double.add("g", 1, 1, ev("granted", "a#1", "a#1"))
	double.add("g", 2, 2, ev("granted", "b#2", "b#2"))
	v := double.check()
	if len(v) == 0 || !strings.Contains(strings.Join(v, "\n"), "multiple holders") {
		t.Errorf("planted double grant: violations %v, want a multiple-holders finding", v)
	}

	split := newFloorLog()
	split.add("g", 1, 1, ev("granted", "a#1", "a#1"))
	split.add("g", 1, 1, ev("granted", "b#2", "b#2"))
	if v := split.check(); len(v) == 0 {
		t.Error("two sessions disagreeing about one log position went unflagged")
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	// dispatch [0,100) holds arbitrate [10,20) and log_append [30,80),
	// which holds encode [40,50); flush [90,130) runs past dispatch.
	spans := []spanKey{
		{"dispatch", 0, 100}, {"arbitrate", 10, 10}, {"log_append", 30, 50},
		{"encode", 40, 10}, {"flush", 90, 40},
	}
	rand.New(rand.NewSource(1)).Shuffle(len(spans), func(i, j int) { spans[i], spans[j] = spans[j], spans[i] })
	l := &ledger{spans: []map[uint64]map[spanKey]bool{{7: {}}}}
	for _, s := range spans {
		l.spans[0][7][s] = true
	}
	got := l.stages(time.Unix(0, 0), time.Unix(0, 1000))
	for stage, want := range map[string]float64{
		"dispatch": 0.040, "arbitrate": 0.010, "log_append": 0.040, "encode": 0.010, "flush": 0.040,
	} {
		st := got[stage]
		if st == nil || len(st.self) != 1 || abs(st.self[0]-want) > 1e-12 {
			t.Errorf("%s self time = %+v, want %v µs", stage, st, want)
		}
	}
}

func TestLineIDRoundTrip(t *testing.T) {
	for _, id := range []int{0, 7, 123456} {
		if got, ok := lineID(lineText(id)); !ok || got != id {
			t.Errorf("lineID(lineText(%d)) = %d, %v", id, got, ok)
		}
	}
	if _, ok := lineID("hello"); ok {
		t.Error("a foreign line parsed as a benchmark line")
	}
}
