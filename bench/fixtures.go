package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/answers"
	"repro/internal/core"
	"repro/internal/eq"
	"repro/internal/plan"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/travel"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
)

// fixtures measures each layer alone, on inputs that do not depend on the
// workload: the rungs a replay cannot separate without instrumenting the
// program (grounding, install and commit happen inside coord's Submit), and
// the terms that grow with state (pending set, installed answers, table
// larger than the pool). Every traced run reports all of them.
func (r *rig) fixtures(seed int64) (metricSet, error) {
	set := metricSet{}
	for _, fx := range []func(*rig, int64, metricSet) error{coordFixtures, answersFixtures, spillFixtures, walFixtures, openLoopFixture} {
		if err := fx(r, seed, set); err != nil {
			return nil, err
		}
	}
	return set, nil
}

func med(set metricSet, name string, us []float64) { set[name] = sample{median(us), len(us)} }

// coordFixtures times Coordinator.Submit on a System without a log: parking
// the first member of a pair and matching on the second, on an empty pending
// set and behind 2000 never-matching queries, and the match of a group of
// four booking flight and hotel.
func coordFixtures(_ *rig, seed int64, set metricSet) error {
	sys := core.NewSystem(core.Config{})
	defer sys.Close() //nolint:errcheck // in-memory
	if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
		return err
	}
	tmpl, err := eq.CompileTemplateSQL(stmtText[stPair])
	if err != nil {
		return err
	}
	co := sys.Coordinator()
	pairs := newScriptGen(findWorkload("pairs_durable"), seed)
	pairRun := func(n, base int) (park, match []float64, err error) {
		for i := 0; i < n; i++ {
			o := pairs.coordOp(0, base+i, 0)
			q0, err0 := tmpl.Bind(o.members[0].params)
			q1, err1 := tmpl.Bind(o.members[1].params)
			if err0 != nil || err1 != nil {
				return nil, nil, fmt.Errorf("bind: %v %v", err0, err1)
			}
			t0 := time.Now()
			_, err0 = co.Submit(q0, "")
			t1 := time.Now()
			h, err1 := co.Submit(q1, "")
			t2 := time.Now()
			if err0 != nil || err1 != nil {
				return nil, nil, fmt.Errorf("submit: %v %v", err0, err1)
			}
			if _, ok := h.TryOutcome(); !ok {
				return nil, nil, fmt.Errorf("fixture pair %d did not match", i)
			}
			park = append(park, float64(t1.Sub(t0))/1e3)
			match = append(match, float64(t2.Sub(t1))/1e3)
		}
		return park, match, nil
	}
	park, match, err := pairRun(400, 0)
	if err != nil {
		return err
	}
	med(set, "coord.park_us", park[40:])
	med(set, "coord.match_us", match[40:])

	groups := newScriptGen(findWorkload("groups_text"), seed)
	var g4 []float64
	for i := 0; i < 240; i++ {
		o := groups.coordOp(0, i, 0)
		for j, m := range o.members {
			q, err := eq.CompileSQL(m.sql)
			if err != nil {
				return err
			}
			t0 := time.Now()
			h, err := co.Submit(q, "")
			if err != nil {
				return err
			}
			if j == len(o.members)-1 {
				g4 = append(g4, float64(time.Since(t0))/1e3)
				if _, ok := h.TryOutcome(); !ok {
					return fmt.Errorf("fixture group %d did not match", i)
				}
			}
		}
	}
	med(set, "coord.match_group4_us", g4[40:])

	for i := 0; i < 2000; i++ {
		q, err := tmpl.Bind(pairs.lonerParams(i))
		if err != nil {
			return err
		}
		if _, err := co.Submit(q, ""); err != nil {
			return err
		}
	}
	if park, match, err = pairRun(150, 1_000_000); err != nil {
		return err
	}
	med(set, "coord.park_loaded_us", park[15:])
	med(set, "coord.match_loaded_us", match[15:])
	return nil
}

// answersFixtures times installing one answer tuple in its own transaction,
// split into the install and the transaction around it, and looking a
// traveler up among 100 000 installed answers.
func answersFixtures(_ *rig, seed int64, set metricSet) error {
	cat := storage.NewCatalog()
	mgr := txn.NewManager(cat)
	store := answers.NewStore(cat)
	const rel = "Reservation"
	name := func(i int) string { return fmt.Sprintf("s%05dtraveler%07d", seed%100000, i) }
	tuple := func(i int) value.Tuple {
		return value.Tuple{value.NewString(name(i)), value.NewInt(firstFno + int64(i%numFlights))}
	}
	const bulk, timed = 100_000, 2000
	for at := 0; at < bulk; at += 1000 {
		tx := mgr.Begin()
		for i := at; i < at+1000; i++ {
			if err := store.Install(tx, rel, tuple(i)); err != nil {
				return err
			}
		}
		if err := tx.Commit(); err != nil {
			return err
		}
	}
	install, around := make([]float64, timed), make([]float64, timed)
	for i := range install {
		t0 := time.Now()
		tx := mgr.Begin()
		t1 := time.Now()
		err := store.Install(tx, rel, tuple(bulk+i))
		t2 := time.Now()
		if err == nil {
			err = tx.Commit()
		}
		t3 := time.Now()
		if err != nil {
			return err
		}
		install[i] = float64(t2.Sub(t1)) / 1e3
		around[i] = float64(t1.Sub(t0)+t3.Sub(t2)) / 1e3
	}
	med(set, "answers.install_us", install)
	med(set, "txn.begin_commit_us", around)
	rng := rand.New(rand.NewSource(seed))
	var found int
	look := timeEach(timed, func(int) {
		pattern := eq.NewAtom(rel, eq.ConstTerm(value.NewString(name(rng.Intn(bulk)))), eq.VarTerm("fno"))
		found += len(store.Matching(pattern))
	})
	if found != timed {
		return fmt.Errorf("answers fixture: %d lookups found %d tuples", timed, found)
	}
	med(set, "answers.matching_100k_us", look)
	return nil
}

// spillFixtures times the engine, the planner and the storage layer on
// sql_spill's data: a table five times the buffer pool.
func spillFixtures(r *rig, seed int64, set metricSet) error {
	wl := findWorkload("sql_spill")
	dir := filepath.Join(r.scratch, "fixture-spill")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir) //nolint:errcheck // scratch
	cfg := wl.coreConfig(dir)
	cfg.WALPath = "" // no log: these are the layers below it
	sys := core.NewSystem(cfg)
	defer sys.Close() //nolint:errcheck // scratch state
	if err := sys.Err(); err != nil {
		return err
	}
	if err := travel.Seed(sys, travel.SeedConfig{Seed: 1}); err != nil {
		return err
	}
	if err := loadHistory(sys.Exec); err != nil {
		return err
	}
	eng := sys.Engine()
	prepare := func(src string) (func(value.Tuple) error, error) {
		stmt, err := sql.Parse(src)
		if err != nil {
			return nil, err
		}
		p, err := eng.Prepare(stmt)
		if err != nil {
			return nil, err
		}
		return func(params value.Tuple) error { _, err := p.Execute(params); return err }, nil
	}
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	base := int(uint64(seed) % historyRows)
	cold := func(i int) int64 { return int64((base + i*historyStride) % historyRows) }

	point, err := prepare(stmtText[stHistoryRead])
	if err != nil {
		return err
	}
	med(set, "engine.point_us", timeEach(600, func(i int) { keep(point(value.Tuple{value.NewInt(cold(i))})) }))
	scan, err := prepare("SELECT id FROM History WHERE id BETWEEN ? AND ?")
	if err != nil {
		return err
	}
	med(set, "engine.range256_us", timeEach(150, func(i int) {
		lo := cold(i) % (historyRows - scanWidth)
		keep(scan(value.Tuple{value.NewInt(lo), value.NewInt(lo + scanWidth - 1)}))
	}))
	update, err := prepare(stmtText[stHistoryWrite])
	if err != nil {
		return err
	}
	med(set, "engine.update_us", timeEach(16, func(i int) {
		keep(update(value.Tuple{value.NewString(historyBodyOf(cold(i), 1)), value.NewInt(cold(i))}))
	}))
	flights, err := prepare("SELECT fno FROM Flights WHERE dest = ?")
	if err != nil {
		return err
	}
	hotels, err := prepare("SELECT hno FROM Hotels WHERE city = ?")
	if err != nil {
		return err
	}
	med(set, "engine.ground_trip_us", timeEach(600, func(i int) {
		dest := value.Tuple{value.NewString(travel.Destinations[i%len(travel.Destinations)])}
		keep(flights(dest))
		keep(hotels(dest))
	}))

	tbl, err := sys.Catalog().Get("History")
	if err != nil {
		return err
	}
	stats := tbl.Stats()
	var rows float64
	med(set, "plan.estimate_us", timeEach(2000, func(i int) {
		lo := value.NewInt(cold(i))
		rows += plan.Estimate(plan.Input{Stats: stats, RangeCol: 0,
			Lo: storage.BoundAt(lo, true), Hi: storage.BoundAt(value.NewInt(lo.Int()+scanWidth-1), true)}).Rows
	}))
	med(set, "plan.explain_us", timeEach(300, func(i int) {
		_, err := sys.Explain(fmt.Sprintf("SELECT id FROM History WHERE id BETWEEN %d AND %d", cold(i), cold(i)+scanWidth-1), nil)
		keep(err)
	}))

	get := func(key int64) {
		if _, _, ok := tbl.LookupPK(value.Tuple{value.NewInt(key)}); !ok {
			keep(fmt.Errorf("History row %d not found", key))
		}
	}
	med(set, "storage.get_hot_us", timeEach(2000, func(int) { get(int64(base)) }))
	med(set, "storage.get_cold_us", timeEach(600, func(i int) { get(cold(i + 1000)) }))
	scratch, err := sys.Catalog().Create("Scratch", tbl.Schema(), "id")
	if err != nil {
		return err
	}
	med(set, "storage.insert_us", timeEach(2000, func(i int) {
		_, err := scratch.Insert(value.Tuple{value.NewInt(int64(i)), value.NewString(historyBodyOf(int64(i), 0))})
		keep(err)
	}))
	if rows == 0 {
		keep(fmt.Errorf("planner estimated no rows for any range"))
	}
	return firstErr
}

// walFixtures times one pair's three log records — two answer tuples and the
// commit record — appended and committed: handed to the operating system,
// and fsynced to the device the checkout is on.
func walFixtures(r *rig, seed int64, set metricSet) error {
	for _, fx := range []struct {
		name string
		sync wal.SyncMode
		n    int
	}{{"wal.append_commit_us", wal.SyncOS, 1500}, {"wal.disk_commit_us", wal.SyncAlways, 300}} {
		dir := filepath.Join(r.scratch, "fixture-wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		l, err := wal.OpenLog(dir, storage.NewCatalog(), wal.Options{Sync: fx.sync})
		if err != nil {
			return err
		}
		var firstErr error
		us := timeEach(fx.n, func(i int) {
			id := uint64(i + 1)
			for m := 0; m < 2; m++ {
				l.AppendAsync(storage.LogRecord{Op: storage.OpInsert, Table: travel.RelFlight, Txn: id, //nolint:errcheck // sticky, surfaced by Commit
					RowID: storage.RowID(2*i + m),
					Row:   value.Tuple{value.NewString(fmt.Sprintf("s%05dw0c%07do0m%d", seed%100000, i, m)), value.NewInt(firstFno)}})
			}
			l.AppendAsync(storage.LogRecord{Op: storage.OpCommit, Txn: id, TS: id}) //nolint:errcheck // sticky, surfaced by Commit
			if err := l.Commit(); err != nil && firstErr == nil {
				firstErr = err
			}
		})
		if err := l.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		os.RemoveAll(dir) //nolint:errcheck // scratch
		if firstErr != nil {
			return firstErr
		}
		med(set, fx.name, us)
	}
	return nil
}

// openLoopFixture is one Poisson pass of prepared pairs at 1000 pairs/s
// against server.Listen on loopback: an open loop, so each latency runs from
// the moment the pair was due, whether or not the generator sent it on time.
// It is recorded for the load curve ROADMAP asks for and gates nothing: on
// this box open-loop percentiles do not repeat.
func openLoopFixture(r *rig, seed int64, set metricSet) error {
	const (
		rate   = 1000.0
		length = 3 * time.Second
	)
	wl := findWorkload("pairs_durable")
	rp, err := r.newReplay(wl, seed)
	if err != nil {
		return err
	}
	defer rp.close()
	s, gen := rp.wire, rp.gen
	rng := rand.New(rand.NewSource(seed))
	var (
		mu        sync.Mutex
		lat, late []float64
		failed    int
		wg        sync.WaitGroup
	)
	start := time.Now()
	due := time.Duration(0)
	for i := 0; ; i++ {
		due += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if due >= length {
			break
		}
		time.Sleep(time.Until(start.Add(due)))
		o := gen.coordOp(0, 1_000_000+i, 0)
		wg.Add(1)
		go func(dueAt time.Time) {
			defer wg.Done()
			sentLate := msSince(dueAt)
			ok := false
			evs, _, err := s.submit(i%numWorkers, &o)
			if err == nil {
				ctx, cancel := context.WithTimeout(context.Background(), opTimeout)
				defer cancel()
				ok = true
				for _, ch := range evs {
					select {
					case ev := <-ch:
						ok = ok && !ev.Canceled
					case <-ctx.Done():
						ok = false
					}
				}
			}
			mu.Lock()
			defer mu.Unlock()
			if !ok {
				failed++
				return
			}
			lat = append(lat, msSince(dueAt))
			late = append(late, sentLate)
		}(start.Add(due))
	}
	wg.Wait()
	if failed > 0 || len(lat) == 0 {
		return fmt.Errorf("open-loop pass: %d of %d pairs failed", failed, failed+len(lat))
	}
	sort.Float64s(lat)
	sort.Float64s(late)
	set["workload.open_r1000_p50_ms"] = sample{percentile(lat, 50), len(lat)}
	set["workload.open_r1000_p95_ms"] = sample{percentile(lat, 95), len(lat)}
	set["workload.open_late_ms"] = sample{math.Max(percentile(late, 95), 0), len(late)}
	return nil
}
