package main

import (
	"fmt"
	"math"
	"sort"
)

// metricSpec is one named metric as BENCHMARK.json declares it. bound is the
// share of the parent's median by which an end-to-end metric may get worse;
// per-layer metrics carry none.
type metricSpec struct {
	name, unit, better string
	bound              float64
}

// endToEnd lists what a client of the server sees. Failures are not in the
// list: the builder contract reports them as attempted/failed/correct beside
// the metrics, and a metric may never be 0. Each bound is three times the
// widest interquartile spread the metric showed over ten seeds on any
// workload, rounded up and capped at the contract's 0.25, which every timed
// metric reaches on this box (README, "Bounds"). The read tail is the p90, not the
// p95: on sql_spill 3-6 % of the point reads wait 1-3 ms behind the other
// worker's table-scanning UPDATE, so the p95 sits on a knee and spread 18 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"coord_p50_ms", "ms", "lower", 0.25},
	{"coord_p95_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p90_ms", "ms", "lower", 0.25},
	{"scan_p50_ms", "ms", "lower", 0.25},
	{"write_p50_ms", "ms", "lower", 0.25},
	{"server_cpu_ms_per_op", "ms", "lower", 0.25},
	{"server_rss_mb", "MB", "lower", 0.15},
	{"wal_bytes_per_op", "B", "lower", 0.01},
	{"wal_fsyncs_per_op", "count", "lower", 0.02},
	{"recovery_s", "s", "lower", 0.25},
}

// perLayer lists the traced run's metrics, named <module>.<metric>. The
// README says which end-to-end metric each should move, on which workload.
var perLayer = []metricSpec{
	{name: "server.query_rtt_us", unit: "us", better: "lower"},
	{name: "server.submit_rtt_us", unit: "us", better: "lower"},
	{name: "server.event_delivery_us", unit: "us", better: "lower"},
	{name: "server.self_frac", unit: "frac", better: "lower"},
	{name: "sql.parse_pair_us", unit: "us", better: "lower"},
	{name: "sql.parse_group_us", unit: "us", better: "lower"},
	{name: "sql.parse_scan_us", unit: "us", better: "lower"},
	{name: "sql.self_frac", unit: "frac", better: "lower"},
	{name: "eq.compile_group_us", unit: "us", better: "lower"},
	{name: "eq.bind_pair_us", unit: "us", better: "lower"},
	{name: "eq.self_frac", unit: "frac", better: "lower"},
	{name: "core.prepare_hit_us", unit: "us", better: "lower"},
	{name: "core.pair_inproc_us", unit: "us", better: "lower"},
	{name: "core.group_inproc_us", unit: "us", better: "lower"},
	{name: "core.ladder_residual_frac", unit: "frac", better: "lower"},
	{name: "core.trace_overhead_frac", unit: "frac", better: "lower"},
	{name: "core.self_frac", unit: "frac", better: "lower"},
	{name: "coord.park_us", unit: "us", better: "lower"},
	{name: "coord.match_us", unit: "us", better: "lower"},
	{name: "coord.park_loaded_us", unit: "us", better: "lower"},
	{name: "coord.match_loaded_us", unit: "us", better: "lower"},
	{name: "coord.match_group4_us", unit: "us", better: "lower"},
	{name: "coord.nodes_per_match", unit: "count", better: "lower"},
	{name: "coord.retries_per_match", unit: "count", better: "lower"},
	{name: "coord.escalations_per_match", unit: "count", better: "lower"},
	{name: "coord.grounding_attempts_per_match", unit: "count", better: "lower"},
	{name: "coord.grounding_fail_frac", unit: "frac", better: "lower"},
	{name: "coord.self_frac", unit: "frac", better: "lower"},
	{name: "answers.install_us", unit: "us", better: "lower"},
	{name: "answers.matching_100k_us", unit: "us", better: "lower"},
	{name: "engine.point_us", unit: "us", better: "lower"},
	{name: "engine.range256_us", unit: "us", better: "lower"},
	{name: "engine.update_us", unit: "us", better: "lower"},
	{name: "engine.ground_trip_us", unit: "us", better: "lower"},
	{name: "engine.self_frac", unit: "frac", better: "lower"},
	{name: "plan.estimate_us", unit: "us", better: "lower"},
	{name: "plan.explain_us", unit: "us", better: "lower"},
	{name: "txn.begin_commit_us", unit: "us", better: "lower"},
	{name: "txn.write_conflicts_per_op", unit: "count", better: "lower"},
	{name: "txn.aborted_per_op", unit: "count", better: "lower"},
	{name: "txn.gc_reclaimed_per_op", unit: "count", better: "higher"},
	{name: "storage.insert_us", unit: "us", better: "lower"},
	{name: "storage.get_hot_us", unit: "us", better: "lower"},
	{name: "storage.get_cold_us", unit: "us", better: "lower"},
	{name: "storage.pool_hit_frac", unit: "frac", better: "higher"},
	{name: "storage.misses_per_read", unit: "count", better: "lower"},
	{name: "storage.misses_per_coord", unit: "count", better: "lower"},
	{name: "storage.evictions_per_op", unit: "count", better: "lower"},
	{name: "storage.writebacks_per_op", unit: "count", better: "lower"},
	{name: "storage.load_waits_per_op", unit: "count", better: "lower"},
	{name: "storage.heap_pages_end", unit: "count", better: "lower"},
	{name: "storage.dead_slots_end", unit: "count", better: "lower"},
	{name: "wal.append_commit_us", unit: "us", better: "lower"},
	{name: "wal.disk_commit_us", unit: "us", better: "lower"},
	{name: "wal.records_per_fsync", unit: "count", better: "higher"},
	{name: "wal.rotations", unit: "count", better: "lower"},
	{name: "wal.compactions", unit: "count", better: "lower"},
	{name: "wal.recover_records_per_s", unit: "1/s", better: "higher"},
	{name: "wal.disk_bytes_per_user_byte", unit: "B/B", better: "lower"},
	{name: "wal.self_frac", unit: "frac", better: "lower"},
	{name: "workload.open_r1000_p50_ms", unit: "ms", better: "lower"},
	{name: "workload.open_r1000_p95_ms", unit: "ms", better: "lower"},
	{name: "workload.open_late_ms", unit: "ms", better: "lower"},
}

// sample is one measured metric: its value and how many observations it
// summarises.
type sample struct {
	value float64
	n     int
}

// metricSet maps metric name → sample for one run of one workload.
type metricSet map[string]sample

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// highestPercentile is the highest of the usual percentiles that still has
// at least ten of n samples beyond it; 0 when not even the median has.
func highestPercentile(n int) float64 {
	best := 0.0
	for _, perMyriad := range []int{5000, 9000, 9500, 9900, 9990, 9999} {
		if n*(10000-perMyriad) >= 10*10000 {
			best = float64(perMyriad) / 100
		}
	}
	return best
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles are the first and third quartile of v as Python's
// statistics.quantiles(v, n=4) computes them (exclusive method), which is
// what the driver uses for a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1)) - float64(j)*4
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// printMetrics writes one `name value unit n=samples` line per metric, in
// the order of specs.
func printMetrics(workload string, specs []metricSpec, set metricSet) {
	for _, sp := range specs {
		s, ok := set[sp.name]
		if !ok {
			continue
		}
		fmt.Printf("%s %s %.6g %s n=%d\n", workload, sp.name, s.value, sp.unit, s.n)
	}
}
