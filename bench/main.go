// Command bench is the repository's end-to-end benchmark of the coordination
// path. It builds youtopia-server from the tree, starts a fresh server
// process per workload on a fresh scratch directory, and drives it over TCP
// with a fixed, seed-generated script from two closed-loop workers; a traced
// run replays the same script in-process, layer by layer. See README.md.
//
// Usage (from the checkout root):
//
//	bash bench/run.sh                                  full pass: 4 workloads, end to end + traced
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1   one run, one JSON line last
//	bash bench/run.sh -aa 5                            A/A self-check
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "run one workload and end with one JSON result line (default: full pass over all four)")
		seed    = flag.Int64("seed", 1, "script seed: names, destinations, strides and keys")
		seconds = flag.Float64("seconds", 20, "length the frozen operation counts are sized for")
		trace   = flag.Int("trace", 0, "with -workload: 1 replays the script in-process with spans and reports the per-layer metrics")
		aa      = flag.Int("aa", 0, "A/A self-check: run this many alternating pairs of full passes and compare set medians against the bounds")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	var wl *workload
	if *name != "" {
		if wl = findWorkload(*name); wl == nil {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
	}
	if n := runtime.NumCPU(); n < numWorkers {
		fmt.Fprintf(os.Stderr, "bench: %d CPU(s): the rig needs %d, one per worker beside the server\n", n, numWorkers)
		os.Exit(2)
	}

	r, err := newRig()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	code := 1
	exit := func() {
		r.close()
		os.Exit(code)
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		code = 130
		exit()
	}()

	printEnv(r, "start")
	switch {
	case wl != nil:
		code = runOne(r, wl, *seed, *seconds, *trace == 1)
	case *aa > 0:
		code = runAA(r, *aa, *seed, *seconds)
	default:
		code = runFullPass(r, *seed, *seconds)
	}
	if wl == nil {
		printEnv(r, "end") // runOne prints it before its result line, which must come last
	}
	exit()
}

// runOne is the builder contract's entry: one workload, one mode, and as the
// last line of standard output one JSON object with the result.
func runOne(r *rig, wl *workload, seed int64, seconds float64, traced bool) int {
	// The driver allows a run 180 s; give up before that rather than hang.
	watchdog := time.AfterFunc(170*time.Second, func() {
		fmt.Fprintln(os.Stderr, "bench: run exceeded 170s, giving up")
		r.close()
		os.Exit(3)
	})
	defer watchdog.Stop()
	fmt.Printf("workload=%s seed=%d seconds=%g cycles_per_worker=%d script=%s\n",
		wl.name, seed, seconds, wl.cycles(seconds), scriptHash(wl, seed, seconds))
	var (
		out   *outcome
		specs []metricSpec
		err   error
	)
	if traced {
		specs = perLayer
		out, err = r.runTraced(wl, seed, seconds)
	} else {
		specs = endToEnd
		out, err = r.runEndToEnd(wl, seed, seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	out.report(wl, specs)
	type metricJSON struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	res := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]metricJSON `json:"metrics"`
	}{out.correct, out.attempted, out.failed, map[string]metricJSON{}}
	for _, sp := range specs {
		s, ok := out.metrics[sp.name]
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: metric %s was not measured\n", sp.name)
			return 1
		}
		res.Metrics[sp.name] = metricJSON{s.value, sp.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	printEnv(r, "end")
	fmt.Println(string(line))
	if !out.correct {
		return 1
	}
	return 0
}

// passResult is one full pass: per workload, the end-to-end and per-layer
// metric sets.
type passResult struct {
	endToEnd map[string]metricSet
	perLayer map[string]metricSet
	correct  bool
}

// runPass runs every workload one after another in the fixed order, never
// concurrently; with traced set it follows each with its traced replay.
func runPass(r *rig, seed int64, seconds float64, traced bool) (*passResult, error) {
	p := &passResult{endToEnd: map[string]metricSet{}, perLayer: map[string]metricSet{}, correct: true}
	for _, wl := range workloads {
		out, err := r.runEndToEnd(wl, seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", wl.name, err)
		}
		out.report(wl, endToEnd)
		p.endToEnd[wl.name] = out.metrics
		p.correct = p.correct && out.correct
		if !traced {
			continue
		}
		if out, err = r.runTraced(wl, seed, seconds); err != nil {
			return nil, fmt.Errorf("%s traced: %w", wl.name, err)
		}
		out.report(wl, perLayer)
		p.perLayer[wl.name] = out.metrics
		p.correct = p.correct && out.correct
	}
	return p, nil
}

// runFullPass runs all four workloads end to end and traced, prints every
// metric by name, and writes the summary to bench/out/summary.json. The
// benchmark claims nothing: the summary ends with "claim": null.
func runFullPass(r *rig, seed int64, seconds float64) int {
	p, err := runPass(r, seed, seconds, true)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	type row map[string]float64
	flat := func(sets map[string]metricSet) map[string]row {
		out := map[string]row{}
		for wl, set := range sets {
			out[wl] = row{}
			for name, s := range set {
				out[wl][name] = s.value
			}
		}
		return out
	}
	summary := struct {
		Seed     int64          `json:"seed"`
		Seconds  float64        `json:"seconds"`
		Env      []string       `json:"env"`
		EndToEnd map[string]row `json:"end_to_end"`
		PerLayer map[string]row `json:"per_layer"`
		Correct  bool           `json:"correct"`
		Claim    *string        `json:"claim"`
	}{seed, seconds, envLines(r), flat(p.endToEnd), flat(p.perLayer), p.correct, nil}
	b, err := json.MarshalIndent(summary, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	path := filepath.Join(r.root, "bench", "out", "summary.json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
		err = os.WriteFile(path, append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("summary written to %s\n%s\n", path, b)
	if !p.correct {
		return 1
	}
	return 0
}

// envLines records the machine a run ran on.
func envLines(r *rig) []string {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			return "unknown"
		}
		return strings.TrimSpace(string(b))
	}
	load := read("/proc/loadavg")
	if f := strings.Fields(load); len(f) > 0 {
		load = f[0]
	}
	lines := []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"kernel=" + read("/proc/sys/kernel/osrelease"),
		fmt.Sprintf("scratch_tmpfs=%t", onTmpfs(r.scratch)),
		"loadavg1=" + load,
		fmt.Sprintf("workers=%d connections=%d loop=closed flush=fsync_every_commit", numWorkers, numConns),
	}
	var l float64
	if _, err := fmt.Sscan(load, &l); err == nil && l > 1.0 {
		lines = append(lines, "env_warn=busy_host")
	}
	return lines
}

func printEnv(r *rig, when string) {
	fmt.Printf("env %s %s\n", when, strings.Join(envLines(r), " "))
}

// onTmpfs reports whether dir is on a memory-backed filesystem, where fsync
// costs no device time.
func onTmpfs(dir string) bool {
	var st syscall.Statfs_t
	const tmpfsMagic = 0x01021994
	return syscall.Statfs(dir, &st) == nil && st.Type == tmpfsMagic
}
