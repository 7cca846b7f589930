package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeBaseline stores a BENCH_*.json document holding rows plus the
// _meta entry real documents carry.
func writeBaseline(t *testing.T, rows map[string]metrics) string {
	t.Helper()
	doc := map[string]any{"_meta": map[string]string{"note": "test"}}
	for name, row := range rows {
		doc[name] = row
	}
	data, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_base.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTrendGateMatchesProcsSuffix: a baseline captured on one core
// (unsuffixed names) gates a multi-core run, whose rows Go suffixes
// with -GOMAXPROCS — both the pass and the regression.
func TestTrendGateMatchesProcsSuffix(t *testing.T) {
	base := writeBaseline(t, map[string]metrics{
		"BenchmarkBroadcast/members-2":  {"B_op": 1000, "allocs_op": 10},
		"BenchmarkBroadcast/members-32": {"B_op": 8000, "allocs_op": 100},
	})
	rows := map[string]metrics{
		"BenchmarkBroadcast/members-2-4":  {"B_op": 1100, "allocs_op": 10},
		"BenchmarkBroadcast/members-32-4": {"B_op": 8000, "allocs_op": 100},
	}
	if err := gateTrend(base, rows, 1.30); err != nil {
		t.Fatalf("suffixed rows within budget: %v", err)
	}
	rows["BenchmarkBroadcast/members-2-4"]["allocs_op"] = 20
	err := gateTrend(base, rows, 1.30)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkBroadcast/members-2:") {
		t.Fatalf("regressed suffixed row: err = %v, want a growth failure on members-2", err)
	}
}

// TestTrendGateAmbiguousSuffixIsAbsent: two suffixed rows for one
// baseline name cannot be told apart, so the name counts as missing —
// and with nothing else shared the gate fails instead of picking one.
func TestTrendGateAmbiguousSuffixIsAbsent(t *testing.T) {
	base := writeBaseline(t, map[string]metrics{
		"BenchmarkBroadcast/members-8": {"B_op": 2000, "allocs_op": 30},
	})
	rows := map[string]metrics{
		"BenchmarkBroadcast/members-8-2": {"B_op": 2000, "allocs_op": 30},
		"BenchmarkBroadcast/members-8-4": {"B_op": 2000, "allocs_op": 30},
	}
	err := gateTrend(base, rows, 1.30)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks shared") {
		t.Fatalf("err = %v, want the no-shared-benchmarks failure", err)
	}
}

// TestTrendGateNoSharedRowsFails: a run sharing no benchmark with the
// baseline fails rather than passing vacuously.
func TestTrendGateNoSharedRowsFails(t *testing.T) {
	base := writeBaseline(t, map[string]metrics{
		"BenchmarkQueueChurn": {"B_op": 500, "allocs_op": 5},
	})
	rows := map[string]metrics{
		"BenchmarkBoardStorm": {"B_op": 500, "allocs_op": 5},
	}
	err := gateTrend(base, rows, 1.30)
	if err == nil || !strings.Contains(err.Error(), "no benchmarks shared") {
		t.Fatalf("err = %v, want the no-shared-benchmarks failure", err)
	}
}
