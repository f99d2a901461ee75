package main

import (
	"fmt"
	"sort"
	"strings"
)

// setUps is how often a run sets the server up; setup_s is the median, and
// the last server set up is the one measured.
const setUps = 3

// outcome is one run of one workload: the metrics, and the verdict of the
// correctness and durability checks.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	failures  []string // first offending ops, durability violation last
	correct   bool
}

// runEndToEnd runs one workload against a real server process: set up three
// times, measure the frozen script on the last server, kill it under load,
// restart it and verify what it recovered.
func (r *rig) runEndToEnd(wl *workload, seed int64, seconds float64) (*outcome, error) {
	cycles := wl.cycles(seconds)
	var (
		s      *session
		setups []float64
	)
	for i := 0; i < setUps; i++ {
		if s != nil {
			s.close()
		}
		var took float64
		var err error
		if s, took, err = r.setUp(wl, seed, warmCycles(cycles), i); err != nil {
			return nil, err
		}
		setups = append(setups, took)
	}
	defer s.close()
	m, err := s.measure(cycles)
	if err != nil {
		return nil, err
	}
	s.crashTail(warmCycles(cycles) + cycles)
	recov, derr := s.recoverAndVerify()

	out := &outcome{metrics: metricSet{}}
	var lat [numOpKinds][]float64
	for _, l := range m.logs {
		out.attempted += l.attempted
		out.failed += l.failed
		out.failures = append(out.failures, l.failures...)
		for k := range lat {
			lat[k] = append(lat[k], l.lat[k]...)
		}
	}
	if derr != nil {
		out.failures = append(out.failures, derr.Error())
	}
	out.correct = out.failed == 0 && derr == nil
	for k := range lat {
		sort.Float64s(lat[k])
		fmt.Printf("%s samples %s n=%d highest_supported_percentile=p%g\n", wl.name, opKindNames[k], len(lat[k]), highestPercentile(len(lat[k])))
	}
	ops := float64(out.attempted - out.failed)
	set := out.metrics
	set["setup_s"] = sample{median(setups), len(setups)}
	set["ops_per_s"] = sample{ops / m.wall, out.attempted}
	set["coord_p50_ms"] = sample{percentile(lat[opCoord], 50), len(lat[opCoord])}
	set["coord_p95_ms"] = sample{percentile(lat[opCoord], 95), len(lat[opCoord])}
	set["read_p50_ms"] = sample{percentile(lat[opRead], 50), len(lat[opRead])}
	set["read_p90_ms"] = sample{percentile(lat[opRead], 90), len(lat[opRead])}
	set["scan_p50_ms"] = sample{percentile(lat[opScan], 50), len(lat[opScan])}
	set["write_p50_ms"] = sample{percentile(lat[opWrite], 50), len(lat[opWrite])}
	set["server_cpu_ms_per_op"] = sample{m.cpu * 1000 / ops, out.attempted}
	set["server_rss_mb"] = sample{m.rssMB, 1}
	set["wal_bytes_per_op"] = sample{float64(m.wal.bytes-m.wal0.bytes) / ops, out.attempted}
	set["wal_fsyncs_per_op"] = sample{float64(m.wal.st.Commits.Syncs-m.wal0.st.Commits.Syncs) / ops, out.attempted}
	if len(recov) > 0 {
		set["recovery_s"] = sample{median(recov), len(recov)}
	}
	return out, nil
}

// report prints a run's metrics and, when it is not clean, the offending
// ops.
func (o *outcome) report(wl *workload, specs []metricSpec) {
	printMetrics(wl.name, specs, o.metrics)
	fmt.Printf("%s fail_frac %.6g frac attempted=%d failed=%d correct=%t\n",
		wl.name, float64(o.failed)/float64(max(o.attempted, 1)), o.attempted, o.failed, o.correct)
	if !o.correct {
		fmt.Printf("%s VIOLATION %s\n", wl.name, strings.Join(o.failures, "\n"+wl.name+" VIOLATION "))
	}
}
