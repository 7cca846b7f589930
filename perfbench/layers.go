package main

// layerMoves records, for each per-layer metric, the end-to-end metric
// it should move and the workload where that layer does most of the
// work (and, where one is predicted, where it should stay flat). The
// traced run prints it beside every figure and writes it into the
// ledger, so a change that claims a layer gain names its prediction
// from here. The end-to-end names are the sample families behind the
// primary/secondary metrics: lecture prop/stroke, floor-churn
// grant/handoff, rejoin resume/prop.
var layerMoves = map[string]string{
	"client.request_floor_p50_ms": "grant_p50 on floor-churn",
	"client.release_floor_p50_ms": "grant_p99 on floor-churn (queued waiters wait on the holder's release)",
	"client.chat_p50_ms":          "prop_p50 on lecture",
	"client.annotate_p50_ms":      "stroke_p50 on lecture",
	"client.reconnect_p50_ms":     "resume_p50/p99 on rejoin",
	"client.catchup_p50_ms":       "resume_p50/p99 on rejoin",
	"client.dial_p50_ms":          "setup_s on all",
	"client.join_p50_ms":          "setup_s on all",
	"client.deliveries_per_op":    "cpu_us_per_op on lecture",
	"client.snapshot_per_resume":  "resume_p99 on rejoin",

	"cluster.relay_self_us":       "prop_p50 on lecture, grant_p50 on floor-churn",
	"cluster.relay_mean_us":       "prop_p50 on lecture, grant_p50 on floor-churn",
	"cluster.routed_up_per_op":    "cpu_us_per_op on lecture",
	"cluster.relayed_down_per_op": "cpu_us_per_op on lecture",
	"cluster.repl_ack_p50_ms":     "cpu_us_per_op on floor-churn; flat on grant_p50 (replication is asynchronous)",
	"cluster.repl_ack_mean_us":    "cpu_us_per_op on floor-churn; flat on grant_p50 (replication is asynchronous)",
	"cluster.forwards_per_op":     "cpu_us_per_op on floor-churn; flat on grant_p50",
	"cluster.repl_resends":        "error rate (failed/attempted)",
	"cluster.repl_lost":           "error rate (failed/attempted)",

	"server.dispatch_self_us":           "grant_p50 on floor-churn",
	"server.dispatch_mean_us":           "grant_p50 on floor-churn",
	"server.queue_wait_p99_us":          "prop_p99 on lecture",
	"server.queue_wait_mean_us":         "prop_p99 on lecture",
	"server.queue_depth_max":            "prop_p99 on lecture",
	"server.drops":                      "prop_p99 on lecture",
	"server.board_events_per_op":        "stroke_p50 and cpu_us_per_op on lecture; flat on floor-churn",
	"server.coalesce_logged_per_marked": "cpu_us_per_op on floor-churn",

	"floor.arbitrate_self_us": "grant_p50 on floor-churn (predicted under 1% of it)",
	"floor.arbitrate_mean_us": "grant_p50 on floor-churn (predicted under 1% of it)",

	"grouplog.log_append_self_us": "grant_p50 on floor-churn, prop_p50 on lecture",
	"grouplog.log_append_mean_us": "grant_p50 on floor-churn, prop_p50 on lecture",
	"grouplog.wal_bytes_per_op":   "cpu_us_per_op on floor-churn",
	"grouplog.evicted_per_op":     "resume_p99 on rejoin",

	"protocol.encode_self_us":   "prop_p50 and cpu_us_per_op on lecture",
	"protocol.encode_mean_us":   "prop_p50 and cpu_us_per_op on lecture",
	"protocol.bytes_out_per_op": "prop_p50 and cpu_us_per_op on lecture",
	"protocol.bytes_in_per_op":  "prop_p50 and cpu_us_per_op on lecture",

	"transport.flush_self_us":  "prop_p50 and cpu_us_per_op on lecture",
	"transport.flush_mean_us":  "prop_p50 and cpu_us_per_op on lecture",
	"transport.msgs_per_flush": "prop_p50 and cpu_us_per_op on lecture",
	"transport.flushes_per_op": "prop_p50 and cpu_us_per_op on lecture",

	"runtime.alloc_bytes_per_op":     "cpu_us_per_op on all",
	"runtime.allocs_per_op":          "cpu_us_per_op on all",
	"runtime.gc_per_kop":             "cpu_us_per_op on all",
	"runtime.goroutines_per_session": "live_heap_mb on all",

	"bench.late_p99_ms":         "run validity: the generator kept to the schedule",
	"bench.inflight_max":        "run validity: the backlog stayed bounded",
	"bench.trace_overhead_pct":  "run validity: traced minus untraced cpu_us_per_op, as % of untraced",
	"bench.trace_ring_overruns": "run validity: polls that found the 256-trace ring turned over (0 expected)",
}
