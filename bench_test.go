// Benchmarks regenerating every experiment — one benchmark (or sweep) per
// figure/scenario of the paper plus the A1–A7 ablations.
//
// Run: go test -bench=. -benchmem
package repro

import (
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/baseline"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/repl"
	"repro/internal/server"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/travel"
	"repro/internal/txn"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// uniq hands out process-wide unique participant ids so repeated benchmark
// iterations never collide on traveler names.
var uniq atomic.Uint64

func names2() (string, string) {
	n := uniq.Add(1)
	return fmt.Sprintf("u%d_a", n), fmt.Sprintf("u%d_b", n)
}

func mustSystem(b *testing.B, seed int64) *core.System {
	b.Helper()
	sys, err := workload.NewSystem(seed)
	if err != nil {
		b.Fatal(err)
	}
	return sys
}

// benchNever is a watchdog channel that never closes: coordination in these
// benchmarks is synchronous-on-submit, so outcomes are already buffered by
// the time mustWait runs, and a per-wait timer would only add allocations to
// every measured op (go test's own -timeout is the deadlock backstop).
var benchNever = make(chan struct{})

func mustWait(b *testing.B, h *coord.Handle) coord.Outcome {
	b.Helper()
	out, ok := h.Wait(benchNever)
	if !ok {
		b.Fatalf("q%d unanswered", h.ID)
	}
	return out
}

func submitPair(b *testing.B, sys *core.System, dest string) {
	b.Helper()
	ua, ub := names2()
	f := travel.FlightFilter{Dest: dest}
	h1, err := sys.Submit(travel.BuildFlightQuery(ua, []string{ub}, f), ua)
	if err != nil {
		b.Fatal(err)
	}
	h2, err := sys.Submit(travel.BuildFlightQuery(ub, []string{ua}, f), ub)
	if err != nil {
		b.Fatal(err)
	}
	mustWait(b, h1)
	mustWait(b, h2)
}

// BenchmarkE1_PairMatch — Figure 1: one two-party coordination per op
// (submit both symmetric queries, wait for the joint answer).
func BenchmarkE1_PairMatch(b *testing.B) {
	sys := mustSystem(b, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		submitPair(b, sys, "Paris")
	}
}

// BenchmarkE2_TravelPair — §3.1 scenario 1 through the full middle tier
// (friend lists, booking objects, notification messages).
func BenchmarkE2_TravelPair(b *testing.B) {
	sys := mustSystem(b, 2)
	svc := travel.NewService(sys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ua, ub := names2()
		svc.Befriend(ua, ub)
		f := travel.FlightFilter{Dest: "Paris"}
		b1, err := svc.BookFlight(ua, []string{ub}, f)
		if err != nil {
			b.Fatal(err)
		}
		b2, err := svc.BookFlight(ub, []string{ua}, f)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := b1.Await(10 * time.Second); err != nil {
			b.Fatal(err)
		}
		if _, err := b2.Await(10 * time.Second); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE3_FlightHotelPair — §3.1 scenario 2: two answer atoms per query.
func BenchmarkE3_FlightHotelPair(b *testing.B) {
	sys := mustSystem(b, 3)
	f := travel.FlightFilter{Dest: "Paris"}
	h := travel.HotelFilter{City: "Paris"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ua, ub := names2()
		h1, err := sys.Submit(travel.BuildTripQuery(ua, []string{ub}, f, h), ua)
		if err != nil {
			b.Fatal(err)
		}
		h2, err := sys.Submit(travel.BuildTripQuery(ub, []string{ua}, f, h), ub)
		if err != nil {
			b.Fatal(err)
		}
		mustWait(b, h1)
		mustWait(b, h2)
	}
}

// BenchmarkE4_ConcurrentPairs — §3.1 scenario 3: pairs submitted from
// concurrent goroutines; the coordinator serializes rounds internally.
func BenchmarkE4_ConcurrentPairs(b *testing.B) {
	sys := mustSystem(b, 4)
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			submitPair(b, sys, "Paris")
		}
	})
}

// BenchmarkE5_GroupSize — §3.1 scenario 4: group booking, swept over group
// size (latency of the k-way match as k grows).
func BenchmarkE5_GroupSize(b *testing.B) {
	for _, k := range []int{2, 3, 4, 6, 8} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sys := mustSystem(b, 5)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := uniq.Add(1)
				members := make([]string, k)
				for j := range members {
					members[j] = fmt.Sprintf("g%d_m%d", n, j)
				}
				handles := make([]*coord.Handle, k)
				for j, self := range members {
					var friends []string
					for l, o := range members {
						if l != j {
							friends = append(friends, o)
						}
					}
					h, err := sys.Submit(travel.BuildFlightQuery(self, friends,
						travel.FlightFilter{Dest: "Paris"}), self)
					if err != nil {
						b.Fatal(err)
					}
					handles[j] = h
				}
				for _, h := range handles {
					mustWait(b, h)
				}
			}
		})
	}
}

// BenchmarkE6_GroupFlightHotel — §3.1 scenario 5: group of four coordinating
// flights AND hotels.
func BenchmarkE6_GroupFlightHotel(b *testing.B) {
	sys := mustSystem(b, 6)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uniq.Add(1)
		members := make([]string, 4)
		for j := range members {
			members[j] = fmt.Sprintf("t%d_m%d", n, j)
		}
		handles := make([]*coord.Handle, len(members))
		for j, self := range members {
			var friends []string
			for l, o := range members {
				if l != j {
					friends = append(friends, o)
				}
			}
			h, err := sys.Submit(travel.BuildTripQuery(self, friends,
				travel.FlightFilter{Dest: "Rome"}, travel.HotelFilter{City: "Rome"}), self)
			if err != nil {
				b.Fatal(err)
			}
			handles[j] = h
		}
		for _, h := range handles {
			mustWait(b, h)
		}
	}
}

// BenchmarkE7_AdHoc — §3.1 scenario 6: the Jerry–Kramer–Elaine overlap graph
// (flights-only edge + flights-and-hotels edge) per op.
func BenchmarkE7_AdHoc(b *testing.B) {
	sys := mustSystem(b, 7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := uniq.Add(1)
		j := fmt.Sprintf("j%d", n)
		k := fmt.Sprintf("k%d", n)
		e := fmt.Sprintf("e%d", n)
		h1, err := sys.Submit(travel.BuildFlightQuery(j, []string{k},
			travel.FlightFilter{Dest: "Paris"}), j)
		if err != nil {
			b.Fatal(err)
		}
		kramer := fmt.Sprintf(`SELECT ('%[1]s', fno) INTO ANSWER Reservation, ('%[1]s', hno) INTO ANSWER HotelReservation
			WHERE fno IN (SELECT fno FROM Flights WHERE dest = 'Paris')
			AND hno IN (SELECT hno FROM Hotels WHERE city = 'Paris')
			AND ('%[2]s', fno) IN ANSWER Reservation
			AND ('%[3]s', hno) IN ANSWER HotelReservation CHOOSE 1`, k, j, e)
		h2, err := sys.Submit(kramer, k)
		if err != nil {
			b.Fatal(err)
		}
		elaine := fmt.Sprintf(`SELECT '%s', hno INTO ANSWER HotelReservation
			WHERE hno IN (SELECT hno FROM Hotels WHERE city = 'Paris')
			AND ('%s', hno) IN ANSWER HotelReservation CHOOSE 1`, e, k)
		h3, err := sys.Submit(elaine, e)
		if err != nil {
			b.Fatal(err)
		}
		mustWait(b, h1)
		mustWait(b, h2)
		mustWait(b, h3)
	}
}

// BenchmarkE8_LoadedSystem — §3 scalability: one pair coordination per op
// while `pending` never-matching queries clog the pending tables.
func BenchmarkE8_LoadedSystem(b *testing.B) {
	for _, pending := range []int{0, 100, 500, 1000, 2000} {
		b.Run(fmt.Sprintf("pending=%d", pending), func(b *testing.B) {
			sys := mustSystem(b, 8)
			gen := workload.NewGenerator(workload.Config{Seed: 8})
			for i := 0; i < pending; i++ {
				if _, err := sys.Submit(gen.LonerQuery(i), "noise"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitPair(b, sys, "Paris")
			}
		})
	}
}

// BenchmarkE10_ShardedArrivals — the sharded-coordinator experiment:
// concurrent pair coordinations over DISJOINT answer-relation footprints
// (Reservation0..Reservation15), so a relation-partitioned coordinator can
// run the arrivals on independent lanes. Run with -cpu 1,2,4 to scale the
// submitters; the shards=1 configuration is the A7 ablation — the paper's
// single serialized coordination round — and the speedup of shards=N over
// it is the payoff of the sharding refactor.
func BenchmarkE10_ShardedArrivals(b *testing.B) {
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedArrivals(b, shards, 16, 2_000_000)
		})
	}
}

// BenchmarkE11_DurableCommit — the segmented-WAL experiment: committed
// ops/sec of group commit vs the naive fsync-per-record baseline at 8
// concurrent writers. One op is one small committed transaction (4 records
// streamed, one durability wait) — the shape of a coordinated-answer
// install. GOMAXPROCS is raised to 8 for the duration so the writers can
// overlap their fsync waits even on a single-core container; the speedup is
// the amortization of the write+fsync syscall pair across everything that
// queued during the previous flush.
func BenchmarkE11_DurableCommit(b *testing.B) {
	const writers, perTxn = 8, 4
	for _, grouped := range []bool{false, true} {
		name := "mode=fsync-per-record"
		if grouped {
			name = "mode=group-commit"
		}
		b.Run(name, func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(writers))
			cat := storage.NewCatalog()
			l, err := wal.OpenLog(filepath.Join(b.TempDir(), "wal"), cat,
				wal.Options{Sync: wal.SyncAlways, NoGroupCommit: !grouped})
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			schema := value.NewSchema(value.Col("fno", value.TypeInt), value.Col("dest", value.TypeString))
			if err := l.Append(storage.LogRecord{Op: storage.OpCreateTable, Table: "T", Schema: schema}); err != nil {
				b.Fatal(err)
			}
			var ctr atomic.Uint64
			row := value.NewTuple(122, "Paris")
			b.SetParallelism(1) // 8 procs × 1 = the 8 concurrent writers
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				for pb.Next() {
					base := ctr.Add(perTxn) - perTxn
					for k := 0; k < perTxn; k++ {
						rec := storage.LogRecord{
							Op: storage.OpInsert, Table: "T",
							RowID: storage.RowID(base + uint64(k) + 1), Row: row,
						}
						var err error
						if grouped {
							err = l.AppendAsync(rec)
						} else {
							err = l.Append(rec)
						}
						if err != nil {
							b.Fatal(err)
						}
					}
					if grouped {
						if err := l.Commit(); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
			b.StopTimer()
			st := l.Stats()
			if st.Syncs > 0 {
				b.ReportMetric(float64(st.Records)/float64(st.Syncs), "records/fsync")
			}
		})
	}
}

// BenchmarkE12_DurableArrivals — E8-style pair coordinations with the WAL
// underneath: "committed-arrival" throughput, where acknowledging an arrival
// under walsync means its records survived an fsync. The volatile
// configuration is the E8 baseline; os-buffered is the pre-v2 durability
// point; walsync is the group-committed fsync.
func BenchmarkE12_DurableArrivals(b *testing.B) {
	for _, mode := range []string{"volatile", "os-buffered", "walsync"} {
		b.Run("mode="+mode, func(b *testing.B) {
			cfg := core.Config{}
			if mode != "volatile" {
				cfg.WALPath = filepath.Join(b.TempDir(), "wal")
				cfg.WALSync = mode == "walsync"
			}
			sys, err := workload.NewSystemConfig(21, cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitPair(b, sys, "Paris")
			}
		})
	}
}

// BenchmarkA7_ShardCount — ablation: lane count under the same
// disjoint-footprint concurrent load, from the serialized round (1) up.
func BenchmarkA7_ShardCount(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			benchShardedArrivals(b, shards, 17, 4_000_000)
		})
	}
}

// benchShardedArrivals drives concurrent pair coordinations over 16
// disjoint footprints against a coordinator with the given lane count. The
// pair-id offset keeps participant names distinct across benchmark configs.
func benchShardedArrivals(b *testing.B, shards int, seed int64, offset int) {
	b.Helper()
	sys, err := workload.NewSystemShards(seed, shards)
	if err != nil {
		b.Fatal(err)
	}
	gen := workload.NewGenerator(workload.Config{Seed: seed, Footprints: 16})
	var pair atomic.Uint64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			// Each iteration is one full pair coordination on the footprint
			// lane its pair index rotates onto.
			i := int(pair.Add(1)) + offset
			qa, qb := gen.PairQueries(i)
			h1, err := sys.Submit(qa, "bench")
			if err != nil {
				b.Fatal(err)
			}
			h2, err := sys.Submit(qb, "bench")
			if err != nil {
				b.Fatal(err)
			}
			mustWait(b, h1)
			mustWait(b, h2)
		}
	})
}

// BenchmarkE9_BaselineVsYoutopia — the §1 comparison: entangled queries vs
// out-of-band middle-tier polling for one pair agreement.
func BenchmarkE9_BaselineVsYoutopia(b *testing.B) {
	b.Run("youtopia", func(b *testing.B) {
		sys := mustSystem(b, 9)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submitPair(b, sys, "Paris")
		}
	})
	b.Run("baseline", func(b *testing.B) {
		sys := mustSystem(b, 9)
		c, err := baseline.New(sys)
		if err != nil {
			b.Fatal(err)
		}
		c.PollInterval = 50 * time.Microsecond
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ua, ub := names2()
			errs := make(chan error, 2)
			go func() { _, err := c.BookSameFlight(ua, ub, "Paris"); errs <- err }()
			go func() { _, err := c.BookSameFlight(ub, ua, "Paris"); errs <- err }()
			for j := 0; j < 2; j++ {
				if err := <-errs; err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(c.Statements())/float64(b.N), "stmts/pair")
	})
}

// BenchmarkF2_CompilerPipeline — Figure 2's query-compiler stage: parse +
// compile + safety-check the paper's §2.1 query.
func BenchmarkF2_CompilerPipeline(b *testing.B) {
	src := travel.BuildFlightQuery("Kramer", []string{"Jerry"}, travel.FlightFilter{Dest: "Paris", MaxPrice: 500})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eq.CompileSQL(src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkA1_CandidateIndex — ablation: pending-head candidate index on vs
// linear scan of every pending head, under a noisy pending set.
func BenchmarkA1_CandidateIndex(b *testing.B) {
	for _, useIndex := range []bool{true, false} {
		b.Run(fmt.Sprintf("index=%v", useIndex), func(b *testing.B) {
			sys := core.NewSystem(core.Config{Coord: coord.Options{
				UseIndex: useIndex, GroundSmallestFirst: true, Seed: 11,
			}})
			if err := travel.Seed(sys, travel.SeedConfig{Seed: 11}); err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(workload.Config{Seed: 11})
			for i := 0; i < 500; i++ {
				if _, err := sys.Submit(gen.LonerQuery(i), "noise"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitPair(b, sys, "Paris")
			}
		})
	}
}

// BenchmarkA2_MatchBound — ablation: the backtracking bound on match-set
// size, exercised by 6-cycles that need 6 members to close.
func BenchmarkA2_MatchBound(b *testing.B) {
	for _, bound := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("bound=%d", bound), func(b *testing.B) {
			sys := core.NewSystem(core.Config{Coord: coord.Options{
				MaxMatchSize: bound, UseIndex: true, GroundSmallestFirst: true, Seed: 12,
			}})
			if err := travel.Seed(sys, travel.SeedConfig{Seed: 12}); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				n := uniq.Add(1)
				handles := make([]*coord.Handle, 0, 6)
				for j := 0; j < 6; j++ {
					self := fmt.Sprintf("c%d_%d", n, j)
					next := fmt.Sprintf("c%d_%d", n, (j+1)%6)
					src := travel.BuildFlightQuery(self, []string{next}, travel.FlightFilter{Dest: "Paris"})
					h, err := sys.Submit(src, self)
					if err != nil {
						b.Fatal(err)
					}
					handles = append(handles, h)
				}
				for _, h := range handles {
					mustWait(b, h)
				}
			}
		})
	}
}

// BenchmarkA3_GroundingOrder — ablation: smallest-candidate-set-first vs
// discovery-order grounding. The pair's queries mix a huge candidate set
// (all flights anywhere) with a tiny one (cheap Paris flights); grounding
// from the tiny set first avoids enumerating the huge one.
func BenchmarkA3_GroundingOrder(b *testing.B) {
	for _, smallest := range []bool{true, false} {
		b.Run(fmt.Sprintf("smallestFirst=%v", smallest), func(b *testing.B) {
			sys := core.NewSystem(core.Config{Coord: coord.Options{
				UseIndex: true, GroundSmallestFirst: smallest, Seed: 13,
			}})
			if err := travel.Seed(sys, travel.SeedConfig{FlightsPerDest: 40, Seed: 13}); err != nil {
				b.Fatal(err)
			}
			mk := func(self, friend string) string {
				return fmt.Sprintf(`SELECT '%s', fno INTO ANSWER Reservation
					WHERE fno IN (SELECT fno FROM Flights)
					AND fno IN (SELECT fno FROM Flights WHERE dest = 'Paris' AND price <= 250)
					AND ('%s', fno) IN ANSWER Reservation CHOOSE 1`, self, friend)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ua, ub := names2()
				h1, err := sys.Submit(mk(ua, ub), ua)
				if err != nil {
					b.Fatal(err)
				}
				h2, err := sys.Submit(mk(ub, ua), ub)
				if err != nil {
					b.Fatal(err)
				}
				mustWait(b, h1)
				mustWait(b, h2)
			}
		})
	}
}

// BenchmarkA4_StorageIndex — ablation: hash index on Flights(dest) vs full
// scan for the generator subquery's equality predicate.
func BenchmarkA4_StorageIndex(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		b.Run(fmt.Sprintf("indexed=%v", indexed), func(b *testing.B) {
			sys := core.NewSystem(core.Config{})
			// Big uniform flights table WITHOUT the travel.Seed indexes.
			if err := sys.Exec("CREATE TABLE Flights (fno INT, dest STRING, PRIMARY KEY (fno))"); err != nil {
				b.Fatal(err)
			}
			for chunk := 0; chunk < 10; chunk++ {
				vals := ""
				for i := 0; i < 500; i++ {
					if i > 0 {
						vals += ", "
					}
					fno := chunk*500 + i
					dest := travel.Destinations[fno%len(travel.Destinations)]
					vals += fmt.Sprintf("(%d, '%s')", fno, dest)
				}
				if err := sys.Exec("INSERT INTO Flights VALUES " + vals); err != nil {
					b.Fatal(err)
				}
			}
			if indexed {
				if err := sys.Exec("CREATE INDEX ON Flights (dest)"); err != nil {
					b.Fatal(err)
				}
			}
			eng := sys.Engine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ExecuteSQL("SELECT fno FROM Flights WHERE dest = 'Paris'")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkA5_TargetedRetry — ablation: after each match, retry only pending
// queries whose constraints the new answers could satisfy vs retrying all.
func BenchmarkA5_TargetedRetry(b *testing.B) {
	for _, full := range []bool{false, true} {
		b.Run(fmt.Sprintf("fullRetry=%v", full), func(b *testing.B) {
			sys := core.NewSystem(core.Config{Coord: coord.Options{
				UseIndex: true, GroundSmallestFirst: true, FullRetryOnMatch: full, Seed: 14,
			}})
			if err := travel.Seed(sys, travel.SeedConfig{Seed: 14}); err != nil {
				b.Fatal(err)
			}
			gen := workload.NewGenerator(workload.Config{Seed: 14})
			for i := 0; i < 500; i++ {
				if _, err := sys.Submit(gen.LonerQuery(i), "noise"); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				submitPair(b, sys, "Paris")
			}
		})
	}
}

// BenchmarkA6_OrderedIndexRange — ablation: ordered-index range lookup vs
// full scan for the price-window predicates of travel filters.
func BenchmarkA6_OrderedIndexRange(b *testing.B) {
	for _, indexed := range []bool{true, false} {
		b.Run(fmt.Sprintf("ordered=%v", indexed), func(b *testing.B) {
			sys := core.NewSystem(core.Config{})
			if err := sys.Exec("CREATE TABLE Fares (fno INT, price FLOAT)"); err != nil {
				b.Fatal(err)
			}
			for chunk := 0; chunk < 10; chunk++ {
				vals := ""
				for i := 0; i < 500; i++ {
					if i > 0 {
						vals += ", "
					}
					n := chunk*500 + i
					vals += fmt.Sprintf("(%d, %d.0)", n, (n*37)%5000)
				}
				if err := sys.Exec("INSERT INTO Fares VALUES " + vals); err != nil {
					b.Fatal(err)
				}
			}
			if indexed {
				if err := sys.Exec("CREATE ORDERED INDEX ON Fares (price)"); err != nil {
					b.Fatal(err)
				}
			}
			eng := sys.Engine()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := eng.ExecuteSQL("SELECT fno FROM Fares WHERE price BETWEEN 100 AND 150")
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Rows) == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkEngineSelect — substrate microbench: single-table filtered SELECT
// through parser + planner + executor.
func BenchmarkEngineSelect(b *testing.B) {
	sys := mustSystem(b, 15)
	eng := sys.Engine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.ExecuteSQL("SELECT fno, price FROM Flights WHERE dest = 'Paris' ORDER BY price LIMIT 5"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWALAppend — substrate microbench: durable insert cost (WAL on)
// vs in-memory insert (WAL off).
func BenchmarkWALAppend(b *testing.B) {
	for _, durable := range []bool{false, true} {
		b.Run(fmt.Sprintf("wal=%v", durable), func(b *testing.B) {
			cfg := core.Config{}
			if durable {
				cfg.WALPath = filepath.Join(b.TempDir(), "bench.wal")
			}
			sys := core.NewSystem(cfg)
			if err := sys.Err(); err != nil {
				b.Fatal(err)
			}
			defer sys.Close()
			if err := sys.Exec("CREATE TABLE T (x INT, y STRING)"); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := sys.Exec(fmt.Sprintf("INSERT INTO T VALUES (%d, 'row')", i)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE13_WireThroughput — the PR-4 wire experiment: one remote
// request/response round trip (a SELECT returning the Paris flight block)
// over the v2 framed protocol, serial vs pipelined (8 submitters multiplexed
// on ONE connection). allocs/op counts client and server together — the
// process is shared — so the codec's marshal costs on both sides are in the
// number. ns/op is report-only per bench methodology;
// allocs/op is the gated metric.
func BenchmarkE13_WireThroughput(b *testing.B) {
	const q = "SELECT * FROM Flights WHERE dest = 'Paris'"
	newServer := func(b *testing.B) string {
		sys := mustSystem(b, 20)
		srv, err := server.Listen(sys, "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		return srv.Addr().String()
	}
	check := func(b *testing.B, res *server.QueryResult, err error) {
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %v", res, err)
		}
	}
	serial := func(b *testing.B, c *server.Client) {
		res, err := c.Query(q) // warm pools and lazy setup before measuring
		check(b, res, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.Query(q)
			check(b, res, err)
		}
	}
	pipelined := func(b *testing.B, c *server.Client) {
		const workers = 8
		res, err := c.Query(q)
		check(b, res, err)
		b.ResetTimer()
		var wg sync.WaitGroup
		errs := make(chan error, workers) // b.Fatal is main-goroutine-only
		for w := 0; w < workers; w++ {
			n := b.N / workers
			if w < b.N%workers {
				n++
			}
			wg.Add(1)
			go func(n int) {
				defer wg.Done()
				for i := 0; i < n; i++ {
					res, err := c.Query(q)
					if err != nil || len(res.Rows) == 0 {
						errs <- fmt.Errorf("query: %v %v", res, err)
						return
					}
				}
			}(n)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			b.Fatal(err)
		}
	}

	b.Run("codec=v2/mode=serial", func(b *testing.B) {
		c, err := server.Dial(newServer(b))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		serial(b, c)
	})
	b.Run("codec=v2/mode=pipelined", func(b *testing.B) {
		c, err := server.Dial(newServer(b))
		if err != nil {
			b.Fatal(err)
		}
		defer c.Close()
		pipelined(b, c)
	})
}

// BenchmarkE14_PreparedThroughput — the PR-5 prepared-statement experiment.
//
// point/*: one parameterized point query per op (indexed dest equality +
// price filter), three ways: mode=text parses per op with the statement
// cache disabled — the pre-PR-5 behavior of every Execute, and still the
// real cost of any text workload whose constants vary per request (travel's
// builders embed user names, so each rendered text is unique); mode=cached
// re-sends IDENTICAL text against the LRU (parse skipped on hit); and
// mode=prepared binds a fresh parameter vector per op against one compiled
// plan. The acceptance target compares prepared against text.
//
// entangled/*: one direct-booking submission per op (unique traveler per
// op, exactly like the workload generators). mode=text parses + compiles
// the coordination IR per arrival; mode=prepared binds one compiled
// template — sql.Parse and eq compilation are skipped entirely, the only
// per-arrival work above the coordinator itself is atom substitution.
//
// wire/*: the point query over TCP — text ships and parses per op vs a
// statement id + binary vector against the per-connection statement table.
func BenchmarkE14_PreparedThroughput(b *testing.B) {
	const pointText = "SELECT fno, price FROM Flights WHERE dest = 'Paris' AND price <= 400.5 ORDER BY price LIMIT 3"
	const pointTmpl = "SELECT fno, price FROM Flights WHERE dest = ? AND price <= ? ORDER BY price LIMIT 3"
	newSys := func(b *testing.B, cache int) *core.System {
		b.Helper()
		sys, err := workload.NewSystemConfig(23, core.Config{StmtCacheSize: cache})
		if err != nil {
			b.Fatal(err)
		}
		return sys
	}
	checkRows := func(b *testing.B, res *engine.Result, err error) {
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %v", res, err)
		}
	}

	b.Run("point/mode=text", func(b *testing.B) {
		sys := newSys(b, -1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sys.Query(pointText)
			checkRows(b, res, err)
		}
	})
	b.Run("point/mode=cached", func(b *testing.B) {
		sys := newSys(b, 0)
		res, err := sys.Query(pointText) // populate the LRU before measuring
		checkRows(b, res, err)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := sys.Query(pointText)
			checkRows(b, res, err)
		}
	})
	b.Run("point/mode=prepared", func(b *testing.B) {
		sys := newSys(b, 0)
		ps, err := sys.Prepare(pointTmpl)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := ps.Exec("", "Paris", 400.5); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// The vector is built per op — binding cost is part of the story.
			resp, err := ps.ExecuteBound(value.NewTuple("Paris", 400.5), "")
			if err != nil || len(resp.Result.Rows) == 0 {
				b.Fatalf("%v %v", resp, err)
			}
		}
	})

	b.Run("entangled/mode=text", func(b *testing.B) {
		sys := newSys(b, -1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := uniq.Add(1)
			src := travel.BuildDirectBooking(fmt.Sprintf("d%d", n), 122)
			h, err := sys.Submit(src, "bench")
			if err != nil {
				b.Fatal(err)
			}
			mustWait(b, h)
		}
	})
	b.Run("entangled/mode=prepared", func(b *testing.B) {
		sys := newSys(b, 0)
		ps, err := sys.Prepare(travel.DirectBookingTemplate)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := uniq.Add(1)
			h, err := ps.SubmitBound(travel.DirectBookingParams(fmt.Sprintf("d%d", n), 122), "bench")
			if err != nil {
				b.Fatal(err)
			}
			mustWait(b, h)
		}
	})

	newWire := func(b *testing.B, cache int) *server.Client {
		b.Helper()
		srv, err := server.Listen(newSys(b, cache), "127.0.0.1:0")
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { srv.Close() })
		c, err := server.Dial(srv.Addr().String())
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { c.Close() })
		return c
	}
	b.Run("wire/mode=text", func(b *testing.B) {
		c := newWire(b, -1)
		if res, err := c.Query(pointText); err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %v", res, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := c.Query(pointText)
			if err != nil || len(res.Rows) == 0 {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
	b.Run("wire/mode=prepared", func(b *testing.B) {
		c := newWire(b, 0)
		st, err := c.Prepare(pointTmpl)
		if err != nil {
			b.Fatal(err)
		}
		if res, err := st.Query("Paris", 400.5); err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %v", res, err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := st.Query("Paris", 400.5)
			if err != nil || len(res.Rows) == 0 {
				b.Fatalf("%v %v", res, err)
			}
		}
	})
}

// BenchmarkE15_SnapshotReaders — the MVCC experiment: point-read throughput
// of 8 readers probing the shared answer relation while entangled writers
// continuously match, ground, and install coordinated answers (X-locking
// Reservation for every install) — point traffic sharing a hot table with
// coordination commits. Probes resolve against pinned snapshots and never
// touch the lock table, so readers neither block coordination nor are
// blocked by it. GOMAXPROCS is raised to 8 for the duration so the readers
// and writers genuinely overlap even on a small container. Report-only:
// allocs/op follows installs/op, which depends on scheduling, so the
// allocs gate does not track it.
func BenchmarkE15_SnapshotReaders(b *testing.B) {
	const readers, writers = 8, 2
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(readers))
	sys := mustSystem(b, 15)

	// Seed the answer relation with one matched pair whose traveler
	// name is known, so every reader probes a stable indexed key.
	seedA, seedB := names2()
	f := travel.FlightFilter{Dest: "Paris"}
	h1, err := sys.Submit(travel.BuildFlightQuery(seedA, []string{seedB}, f), seedA)
	if err != nil {
		b.Fatal(err)
	}
	h2, err := sys.Submit(travel.BuildFlightQuery(seedB, []string{seedA}, f), seedB)
	if err != nil {
		b.Fatal(err)
	}
	mustWait(b, h1)
	mustWait(b, h2)
	// Readers run a prepared point probe: parse/plan are off the
	// measured path, so a probe is a snapshot pin plus an index lookup.
	probe, err := sys.Prepare(fmt.Sprintf("SELECT a2 FROM %s WHERE a1 = ?", travel.RelFlight))
	if err != nil {
		b.Fatal(err)
	}
	probeParams := value.NewTuple(seedA)

	// Writers install coordinated answers continuously via the
	// prepared direct-booking template: each submit is a singleton
	// match that grounds and installs one Reservation tuple — the
	// highest-frequency install load the coordinator can produce.
	ps, err := sys.Prepare(travel.DirectBookingTemplate)
	if err != nil {
		b.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var installs atomic.Uint64
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := uniq.Add(1)
				hw, err := ps.SubmitBound(travel.DirectBookingParams(fmt.Sprintf("w%d", n), 122), "bench")
				if err != nil {
					b.Error(err)
					return
				}
				hw.Wait(benchNever)
				installs.Add(1)
			}
		}()
	}
	// Warm up until the writers are demonstrably installing, so the
	// measured region is read-vs-install interleaving from its first
	// op even at tiny -benchtime.
	for installs.Load() < 4 {
		if _, err := probe.ExecuteBound(probeParams, ""); err != nil {
			b.Fatal(err)
		}
	}

	// One op is a batch of point probes: individual probes are
	// microseconds, so batching keeps scheduler jitter out of
	// small-sample runs.
	const probesPerOp = 500
	b.SetParallelism(1) // 8 procs × 1 = the 8 concurrent readers
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			for k := 0; k < probesPerOp; k++ {
				resp, err := probe.ExecuteBound(probeParams, "")
				if err != nil {
					b.Error(err)
					return
				}
				if len(resp.Result.Rows) != 1 {
					b.Errorf("probe returned %d rows, want the seed reservation", len(resp.Result.Rows))
					return
				}
			}
		}
	})
	b.StopTimer()
	close(stop)
	wg.Wait()
	if b.N > 0 {
		b.ReportMetric(float64(installs.Load())/float64(b.N), "installs/op")
	}
}

// BenchmarkServerRoundTrip — substrate microbench: one remote SELECT over
// the wire protocol.
func BenchmarkServerRoundTrip(b *testing.B) {
	sys := mustSystem(b, 20)
	srv, err := server.Listen(sys, "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	c, err := server.Dial(srv.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := c.Query("SELECT fno FROM Flights WHERE dest = 'Paris' LIMIT 3")
		if err != nil || len(res.Rows) == 0 {
			b.Fatalf("%v %v", res, err)
		}
	}
}

// BenchmarkUnify — substrate microbench: one Figure-1b unification.
func BenchmarkUnify(b *testing.B) {
	cons := eq.NewAtom("Reservation", eq.ConstTerm(value.NewString("Jerry")), eq.VarTerm("fno"))
	head := eq.NewAtom("Reservation", eq.ConstTerm(value.NewString("Jerry")), eq.VarTerm("fno"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := eq.NewSubst()
		if !eq.UnifyAtoms(s, 1, cons, 2, head) {
			b.Fatal("unify failed")
		}
	}
}

// E16: replication shipping cost — durable commits on a primary streaming
// live to one connected follower over the framed log-shipping protocol. An
// iteration is one acknowledged primary commit; the timer stops only after
// the follower's chain has durably applied every shipped byte, so ship,
// replay and ack all amortize into ns/op. Compare against E11's standalone
// fsync-per-record commit: the delta is what a synchronous follower costs.
func BenchmarkE16_ReplicatedCommit(b *testing.B) {
	pdir := filepath.Join(b.TempDir(), "wal")
	sys := core.NewSystem(core.Config{WALPath: pdir, WALSync: true, CoordShards: 1})
	if err := sys.Err(); err != nil {
		b.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	pn, err := repl.Start(repl.Config{System: sys, Dir: pdir, ListenAddr: "127.0.0.1:0"})
	if err != nil {
		b.Fatal(err)
	}
	defer pn.Close() //nolint:errcheck

	fdir := filepath.Join(b.TempDir(), "fwal")
	fsys := core.NewSystem(core.Config{WALPath: fdir, WALSync: true, WALFollower: true, CoordShards: 1})
	if err := fsys.Err(); err != nil {
		b.Fatal(err)
	}
	defer fsys.Close() //nolint:errcheck
	fn, err := repl.Start(repl.Config{System: fsys, Dir: fdir, PrimaryAddr: pn.Addr(), PrimaryClientAddr: "bench"})
	if err != nil {
		b.Fatal(err)
	}
	defer fn.Close() //nolint:errcheck

	if _, err := sys.Execute("CREATE TABLE Repl (id INT, note STRING, PRIMARY KEY(id))", "bench"); err != nil {
		b.Fatal(err)
	}
	waitReplConverge(b, sys, fsys)

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := fmt.Sprintf("INSERT INTO Repl VALUES (%d, 'r')", i)
		if _, err := sys.Execute(q, "bench"); err != nil {
			b.Fatal(err)
		}
	}
	waitReplConverge(b, sys, fsys)
	b.StopTimer()
}

func waitReplConverge(b *testing.B, p, f *core.System) {
	b.Helper()
	target := p.WAL().End()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if cur, _ := f.WAL().TailInfo(); cur == target && f.Ready() {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
	b.Fatalf("follower did not converge to %+v", target)
}

// BenchmarkE17_LargerThanRAM — the disk-backed storage engine's headline
// experiment: a cold History relation several times larger than the buffer
// pool, so every sweep of the key space pages frames in and out of the 8 KiB
// heap files. Three access patterns run against the same loaded system:
// prepared point lookups and ordered-index range scans over the cold data
// (paging on the measured path), and pair coordination on pinned relations
// (Flights/Hotels plus the auto-pinned answer store), which must stay fully
// resident — its coldMiss/op metric reports any pool traffic it causes.
func BenchmarkE17_LargerThanRAM(b *testing.B) {
	const (
		poolPages = 128   // 1 MiB of 8 KiB frames
		coldRows  = 40000 // ~5 MiB of heap records — ~5x the pool
		batch     = 250   // rows per multi-row INSERT during load
	)
	sys, err := workload.NewSystemConfig(17, core.Config{
		BufferPoolPages: poolPages,
		PinnedRelations: []string{"Flights", "Hotels"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	if err := sys.Exec("CREATE TABLE History (id INT, body STRING, PRIMARY KEY (id));"); err != nil {
		b.Fatal(err)
	}
	pad := strings.Repeat("x", 112)
	for lo := 0; lo < coldRows; lo += batch {
		var sb strings.Builder
		sb.WriteString("INSERT INTO History VALUES ")
		for i := lo; i < lo+batch; i++ {
			if i > lo {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, 'h%06d-%s')", i, i, pad)
		}
		if err := sys.Exec(sb.String()); err != nil {
			b.Fatal(err)
		}
	}
	if err := sys.Exec("CREATE ORDERED INDEX ON History (id);"); err != nil {
		b.Fatal(err)
	}
	st, ok := sys.PoolStats()
	if !ok {
		b.Fatal("buffer pool reported disabled")
	}
	if st.HeapPages < 4*st.Capacity {
		b.Fatalf("dataset did not outgrow the pool: %d heap pages vs %d frames", st.HeapPages, st.Capacity)
	}

	b.Run("point", func(b *testing.B) {
		probe, err := sys.Prepare("SELECT body FROM History WHERE id = ?")
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// A stride coprime to the row count sweeps the whole heap, so
			// lookups keep missing the pool instead of settling into a
			// cached working set.
			id := (i * 9973) % coldRows
			resp, err := probe.ExecuteBound(value.NewTuple(id), "")
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Result.Rows) != 1 {
				b.Fatalf("id %d returned %d rows", id, len(resp.Result.Rows))
			}
		}
		b.StopTimer()
		if st, ok := sys.PoolStats(); ok {
			b.ReportMetric(100*st.HitRatio(), "hit%")
			b.ReportMetric(float64(st.HeapPages), "heapPages")
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.HeapAlloc)/(1<<20), "heapMB")
	})

	b.Run("range", func(b *testing.B) {
		eng := sys.Engine()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			lo := (i * 7919) % (coldRows - 256)
			q := fmt.Sprintf("SELECT id FROM History WHERE id BETWEEN %d AND %d", lo, lo+255)
			res, err := eng.ExecuteSQL(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != 256 {
				b.Fatalf("window at %d returned %d rows", lo, len(res.Rows))
			}
		}
	})

	b.Run("coord", func(b *testing.B) {
		pre, _ := sys.PoolStats()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			submitPair(b, sys, "Paris")
		}
		b.StopTimer()
		post, _ := sys.PoolStats()
		if b.N > 0 {
			// Pinned + answer relations are fully resident: coordination
			// should not touch the disk heaps at all.
			b.ReportMetric(float64(post.Misses-pre.Misses)/float64(b.N), "coldMiss/op")
		}
	})
}

// E18: planner selectivity — the cost-based planner's headline experiment.
// A 40k-row relation with a selective secondary column (10 rows per key);
// the same prepared point query runs with and without the user-created
// ordered secondary index. The planner must route the indexed case through
// a degenerate [v, v] ordered-index probe, which has to come in well over
// an order of magnitude under the filtering full scan — the ≥10x bar the
// planner PR is gated on.
func BenchmarkE18_PlannerSelectivity(b *testing.B) {
	const (
		rows  = 40000
		keys  = 4000 // 10 rows per kind value
		batch = 250
	)
	build := func(indexed bool) *engine.Engine {
		e := engine.New(txn.NewManager(storage.NewCatalog()))
		if _, err := e.ExecuteSQL("CREATE TABLE Events (id INT, kind INT, note STRING, PRIMARY KEY (id))"); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < rows; lo += batch {
			var sb strings.Builder
			sb.WriteString("INSERT INTO Events VALUES ")
			for i := lo; i < lo+batch; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, %d, 'e%06d')", i, i%keys, i)
			}
			if _, err := e.ExecuteSQL(sb.String()); err != nil {
				b.Fatal(err)
			}
		}
		if indexed {
			if _, err := e.ExecuteSQL("CREATE INDEX events_kind ON Events (kind)"); err != nil {
				b.Fatal(err)
			}
		}
		return e
	}
	run := func(b *testing.B, e *engine.Engine, wantPath string) {
		stmt, err := sql.Parse("SELECT id FROM Events WHERE kind = ?")
		if err != nil {
			b.Fatal(err)
		}
		// Fail fast if the planner stops choosing the path under measurement.
		d, err := e.ExplainStmt(stmt, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !strings.Contains(d.Steps[0].Path, wantPath) {
			b.Fatalf("planner chose %q, want %q:\n%s", d.Steps[0].Path, wantPath, d.String())
		}
		p, err := e.Prepare(stmt)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// Coprime stride sweeps the key space so no probe value stays hot.
			res, err := p.Execute(value.NewTuple((i * 997) % keys))
			if err != nil {
				b.Fatal(err)
			}
			if len(res.Rows) != rows/keys {
				b.Fatalf("probe returned %d rows, want %d", len(res.Rows), rows/keys)
			}
		}
	}
	indexed, scan := build(true), build(false)
	b.Run("indexed", func(b *testing.B) { run(b, indexed, "eq probe (ordered)") })
	b.Run("scan", func(b *testing.B) { run(b, scan, "scan") })
}

// E19: concurrent cold scans — the sharded pool's headline experiment.
// N goroutines each sweep range windows over their own spilled table, so
// every window is a burst of cold misses on pages the other goroutines
// never touch. Under the old single-mutex pool each miss's disk read
// serialized the whole pool; the sharded pool with latched frame I/O keeps
// only the reading goroutine waiting.
//
// Honesty note for CI: the gate machine schedules this on one core, where
// parallel disk reads buy little wall-clock — the gate only pins the
// absence of regression. The functional evidence that misses overlap is
// the latch suite (internal/storage/pool_latch_test.go, pool_fault_test.go)
// plus the per-shard miss distribution this benchmark reports: shardSpread
// near 1.0 means the pageTag hash spread the miss load evenly across
// shards, i.e. no shard's mutex was the bottleneck.
func BenchmarkE19_ConcurrentColdScans(b *testing.B) {
	const (
		scanners  = 4
		poolPages = 128  // 1 MiB of 8 KiB frames
		rowsEach  = 8000 // ~1 MiB of heap records per table — 4 MiB total, 4x the pool
		batch     = 250
		window    = 256
	)
	sys, err := workload.NewSystemConfig(19, core.Config{
		BufferPoolPages: poolPages,
		// Explicit shard count: the auto-size follows GOMAXPROCS, which is 1
		// on the CI gate and would collapse the experiment to one shard.
		BufferPoolShards: scanners,
		PinnedRelations:  []string{"Flights", "Hotels"},
	})
	if err != nil {
		b.Fatal(err)
	}
	defer sys.Close() //nolint:errcheck
	pad := strings.Repeat("x", 112)
	for s := 0; s < scanners; s++ {
		if err := sys.Exec(fmt.Sprintf("CREATE TABLE Cold%d (id INT, body STRING, PRIMARY KEY (id));", s)); err != nil {
			b.Fatal(err)
		}
		for lo := 0; lo < rowsEach; lo += batch {
			var sb strings.Builder
			fmt.Fprintf(&sb, "INSERT INTO Cold%d VALUES ", s)
			for i := lo; i < lo+batch; i++ {
				if i > lo {
					sb.WriteString(", ")
				}
				fmt.Fprintf(&sb, "(%d, 'c%d-%06d-%s')", i, s, i, pad)
			}
			if err := sys.Exec(sb.String()); err != nil {
				b.Fatal(err)
			}
		}
		if err := sys.Exec(fmt.Sprintf("CREATE ORDERED INDEX ON Cold%d (id);", s)); err != nil {
			b.Fatal(err)
		}
	}
	pre, ok := sys.PoolStats()
	if !ok {
		b.Fatal("buffer pool reported disabled")
	}
	if len(pre.Shards) != scanners {
		b.Fatalf("pool has %d shards, want %d", len(pre.Shards), scanners)
	}
	if pre.HeapPages < 2*pre.Capacity {
		b.Fatalf("dataset did not outgrow the pool: %d heap pages vs %d frames", pre.HeapPages, pre.Capacity)
	}

	eng := sys.Engine()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var wg sync.WaitGroup
		for s := 0; s < scanners; s++ {
			wg.Add(1)
			go func(s, i int) {
				defer wg.Done()
				// Coprime stride sweeps each heap so windows keep missing.
				lo := (i * 7919) % (rowsEach - window)
				q := fmt.Sprintf("SELECT id FROM Cold%d WHERE id BETWEEN %d AND %d", s, lo, lo+window-1)
				res, err := eng.ExecuteSQL(q)
				if err != nil {
					b.Error(err)
					return
				}
				if len(res.Rows) != window {
					b.Errorf("Cold%d window at %d returned %d rows", s, lo, len(res.Rows))
				}
			}(s, i)
		}
		wg.Wait()
	}
	b.StopTimer()

	post, _ := sys.PoolStats()
	if b.N > 0 {
		var missMax, missSum uint64
		for i := range post.Shards {
			m := post.Shards[i].Misses - pre.Shards[i].Misses
			missSum += m
			if m > missMax {
				missMax = m
			}
		}
		b.ReportMetric(float64(missSum)/float64(b.N), "coldMiss/op")
		if missSum > 0 {
			// max shard share / mean shard share: 1.0 is a perfect spread,
			// `scanners` means one shard absorbed every miss.
			mean := float64(missSum) / float64(len(post.Shards))
			b.ReportMetric(float64(missMax)/mean, "shardSpread")
		}
		b.ReportMetric(float64(post.LoadWaits-pre.LoadWaits)/float64(b.N), "loadWaits/op")
	}
}
