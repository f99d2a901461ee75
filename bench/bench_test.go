package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"

	"repro/internal/server"
	"repro/internal/travel"
	"repro/internal/value"
)

// manifest is BENCHMARK.json as the driver reads it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables the benchmark
// prints from: same names, units, directions and bounds, in the same order.
func TestManifestMatchesTables(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, the benchmark %d", len(m.Workloads), len(workloads))
	}
	for i, w := range m.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why || !name.MatchString(w.Name) || len(w.Why) > 200 {
			t.Errorf("workload %d: manifest %+v, benchmark %s", i, w, workloads[i].name)
		}
	}
	check := func(kind string, got []manifestMetric, want []metricSpec) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, the benchmark %d", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.name || g.Unit != w.unit || g.Better != w.better || g.Bound != w.bound {
				t.Errorf("%s metric %d: manifest %+v, benchmark %+v", kind, i, g, w)
			}
			if !name.MatchString(g.Name) || !unit.MatchString(g.Unit) {
				t.Errorf("%s metric %q with unit %q is outside the contract's alphabet", kind, g.Name, g.Unit)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
	if endToEnd[0].name != "setup_s" || endToEnd[0].unit != "s" || endToEnd[0].better != "lower" {
		t.Errorf("the contract wants setup_s in seconds, lower is better; got %+v", endToEnd[0])
	}
	for _, sp := range endToEnd {
		if sp.bound <= 0 || sp.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", sp.name, sp.bound)
		}
		if sp.bound > endToEnd[0].bound {
			t.Errorf("%s: bound %v above setup_s's, which should be the largest", sp.name, sp.bound)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "bench" {
		t.Errorf("run_seconds %d, paths %v", m.RunSeconds, m.Paths)
	}
}

func TestScriptHashFollowsSeed(t *testing.T) {
	seen := map[string]string{}
	for _, wl := range workloads {
		a, b := scriptHash(wl, 7, 20), scriptHash(wl, 7, 20)
		if a != b {
			t.Errorf("%s: seed 7 hashed to %s and then %s", wl.name, a, b)
		}
		for _, other := range []string{scriptHash(wl, 8, 20), scriptHash(wl, 7, 10)} {
			if other == a {
				t.Errorf("%s: another seed or length hashed to the same %s", wl.name, a)
			}
		}
		if prev, dup := seen[a]; dup {
			t.Errorf("%s and %s share script hash %s", wl.name, prev, a)
		}
		seen[a] = wl.name
	}
}

// TestScriptKeepsWorkersApart checks the rule that makes the script free of
// self-inflicted conflicts: a worker writes only keys of its own parity, and
// every range scan is one whose result no concurrent write can change.
func TestScriptKeepsWorkersApart(t *testing.T) {
	for _, wl := range workloads {
		g := newScriptGen(wl, 3)
		var ops []op
		for w := 0; w < numWorkers; w++ {
			for c := 0; c < 200; c++ {
				ops = wl.cycle(g, w, c, ops[:0])
				for _, o := range ops {
					if o.kind == opWrite && (o.key-int64(w))%numWorkers != 0 {
						t.Fatalf("%s: worker %d writes key %d", wl.name, w, o.key)
					}
					if o.kind == opCoord && len(o.members) != wl.groupSize {
						t.Fatalf("%s: coordination of %d members", wl.name, len(o.members))
					}
				}
			}
		}
	}
	for fno := int64(firstFno); fno < firstFno+numFlights; fno++ {
		for v := 0; v < 8; v++ {
			if p := flightPrice(fno, v); p < 200+5*float64(fno-firstFno) || p >= 204+5*float64(fno-firstFno) {
				t.Fatalf("flight %d version %d priced %v, outside its 5-wide band", fno, v, p)
			}
		}
	}
}

// events builds the answer events a correct server sends for a coordination.
func events(o *op, fno, hno int64) []server.Event {
	evs := make([]server.Event, len(o.members))
	for j, m := range o.members {
		evs[j] = server.Event{Query: uint64(j + 1), MatchSize: len(o.members), Answers: []server.ClientAnswer{
			{Relation: travel.RelFlight, Tuples: []value.Tuple{{value.NewString(m.name), value.NewInt(fno)}}}}}
		if o.trip {
			evs[j].Answers = append(evs[j].Answers, server.ClientAnswer{
				Relation: travel.RelHotel, Tuples: []value.Tuple{{value.NewString(m.name), value.NewInt(hno)}}})
		}
	}
	return evs
}

func TestCheckerCatchesCorruptedAnswers(t *testing.T) {
	for _, name := range []string{"pairs_durable", "groups_text"} {
		g := newScriptGen(findWorkload(name), 1)
		o := g.coordOp(0, 0, 0)
		var fno, hno int64
		for f := int64(firstFno); f < firstFno+numFlights; f++ {
			if flightDest(f) == o.dest {
				fno = f
			}
		}
		for h := int64(1); h <= 36; h++ {
			if hotelCity(h) == o.dest {
				hno = h
			}
		}
		if a, err := checkCoord(&o, events(&o, fno, hno)); err != nil || a.fno != fno || a.k != len(o.members) {
			t.Fatalf("%s: correct events rejected: %+v %v", name, a, err)
		}
		corrupt := map[string]func(evs []server.Event){
			"partner on another flight": func(evs []server.Event) { evs[1].Answers[0].Tuples[0][1] = value.NewInt(fno - 1) },
			"flight to the wrong place": func(evs []server.Event) {
				e := events(&o, (fno-firstFno+flightsPerDest)%numFlights+firstFno, hno)
				copy(evs, e)
			},
			"someone else's tuple":       func(evs []server.Event) { evs[0].Answers[0].Tuples[0][0] = value.NewString("intruder") },
			"canceled member":            func(evs []server.Event) { evs[len(evs)-1].Canceled = true },
			"two tuples for one member":  func(evs []server.Event) { a := &evs[0].Answers[0]; a.Tuples = append(a.Tuples, a.Tuples[0]) },
			"matched in a smaller group": func(evs []server.Event) { evs[0].MatchSize-- },
			"an answer missing":          func(evs []server.Event) { evs[1].Answers = nil },
		}
		for what, damage := range corrupt {
			evs := events(&o, fno, hno)
			damage(evs)
			if _, err := checkCoord(&o, evs); err == nil {
				t.Errorf("%s: checker accepted %s", name, what)
			}
		}
	}
	// Recovery may lose a coordination cut off by the crash, never half.
	whole := map[string]int64{"s1w0c1o0m0": 101, "s1w0c1o0m1": 101}
	if err := wholeGroups(whole, 2); err != nil {
		t.Errorf("whole coordination rejected: %v", err)
	}
	for what, rel := range map[string]map[string]int64{
		"half a coordination": {"s1w0c1o0m0": 101},
		"a split one":         {"s1w0c1o0m0": 101, "s1w0c1o0m1": 102},
		"an answered loner":   {"s1loner00001": 101},
	} {
		if err := wholeGroups(rel, 2); err == nil {
			t.Errorf("durability check accepted %s", what)
		}
	}
}

func TestPercentiles(t *testing.T) {
	for n, want := range map[int]float64{19: 0, 20: 50, 100: 90, 200: 95, 999: 95, 1000: 99, 10_000: 99.9} {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
	}
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(sorted, p); got != want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", p, got, want)
		}
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles(sorted[:10])
	if math.Abs(q1-2.75) > 1e-9 || math.Abs(q3-8.25) > 1e-9 || median(sorted[:10]) != 5.5 {
		t.Errorf("quartiles(1..10) = %v, %v, median %v; Python gives 2.75, 8.25, 5.5", q1, q3, median(sorted[:10]))
	}
}

// TestSmokeRun drives a real youtopia-server through two short runs and
// checks that every end-to-end metric comes out, clean; without -short it
// also makes a traced run and checks every per-layer metric.
func TestSmokeRun(t *testing.T) {
	r, err := newRig()
	if err != nil {
		t.Fatal(err)
	}
	defer r.close()
	for _, name := range []string{"pairs_durable", "groups_text"} {
		out, err := r.runEndToEnd(findWorkload(name), 5, 0.25)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !out.correct || out.failed != 0 || out.attempted == 0 {
			t.Errorf("%s: attempted %d, failed %d, correct %t: %v", name, out.attempted, out.failed, out.correct, out.failures)
		}
		for _, sp := range endToEnd {
			if s, ok := out.metrics[sp.name]; !ok || s.value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v (present %t); it must be measured and never 0", name, sp.name, s.value, ok)
			}
		}
	}
	if testing.Short() {
		return
	}
	out, err := r.runTraced(findWorkload("sql_spill"), 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !out.correct {
		t.Errorf("traced run: %v", out.failures)
	}
	for _, sp := range perLayer {
		if _, ok := out.metrics[sp.name]; !ok {
			t.Errorf("traced run did not measure %s", sp.name)
		}
	}
	if got := out.metrics["core.ladder_residual_frac"].value; got > 0.15 {
		t.Errorf("rungs and whole op differ by %.0f%%, more than the 15%% the ladder allows", 100*got)
	}
}
