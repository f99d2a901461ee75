package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"strings"

	"repro/internal/core"
	"repro/internal/travel"
	"repro/internal/value"
)

// The travel catalog `youtopia-server -seed` loads (travel.Seed with
// Seed: 1): flights 100..147, eight per destination in travel.Destinations
// order; hotels 1..36, six per city.
const (
	firstFno       = 100
	numFlights     = 48
	flightsPerDest = 8
	hotelsPerCity  = 6
)

func flightDest(fno int64) string {
	return travel.Destinations[(fno-firstFno)/flightsPerDest]
}

func hotelCity(hno int64) string {
	return travel.Destinations[(hno-1)/hotelsPerCity]
}

// History is sql_spill's cold table: 40 000 rows of 128-byte bodies is about
// five times the 128-page (1 MiB) pool the server runs with there.
const (
	historyRows   = 40_000
	historyBody   = 128
	historyStride = 9973 // co-prime with historyRows: successive reads land on different pages
	scanWidth     = 256
	poolPages     = 128
)

// historyBodyOf renders the body of History row id at the given version. The
// id and version lead the text so a reader can check both.
func historyBodyOf(id int64, version int) string {
	head := fmt.Sprintf("%08d:%08d:", id, version)
	return head + strings.Repeat("h", historyBody-len(head))
}

// flightPrice is the price worker-owned writes give a flight. Prices of
// neighbouring flights stay 5 apart and the version only moves the price
// inside [0, 3.5], so a price range scan returns the same eight flights
// whatever the interleaving of writes.
func flightPrice(fno int64, version int) float64 {
	return 200 + 5*float64(fno-firstFno) + 0.5*float64(version%8)
}

type opKind uint8

const (
	opCoord opKind = iota
	opRead
	opScan
	opWrite
	numOpKinds
)

var opKindNames = [numOpKinds]string{"coord", "read", "scan", "write"}

// Prepared statements of the script. Every workload prepares the ones its
// cycle uses, once per connection.
const (
	stPair = iota
	stFlightRead
	stFlightWrite
	stHistoryRead
	stHistoryWrite
	numStmts
)

var stmtText = [numStmts]string{
	stPair:         travel.FlightQueryTemplate(travel.RelFlight, 1, travel.FlightFilter{}),
	stFlightRead:   "SELECT fno, dest, price FROM Flights WHERE fno = ?",
	stFlightWrite:  "UPDATE Flights SET price = ? WHERE fno = ?",
	stHistoryRead:  "SELECT body FROM History WHERE id = ?",
	stHistoryWrite: "UPDATE History SET body = ? WHERE id = ?",
}

// member is one participant of a coordination: a prepared parameter vector,
// or rendered SQL text when the workload submits text.
type member struct {
	name   string
	sql    string
	params value.Tuple
}

// op is one client-visible operation of the script.
type op struct {
	kind    opKind
	stmt    int // prepared statement, -1 for text
	sql     string
	params  value.Tuple
	members []member // opCoord
	trip    bool     // opCoord: members book a hotel too
	dest    string   // opCoord: where every member must land
	key     int64    // read/write: primary key; scan: low bound
	version int      // write: version the key holds afterwards; read: version expected
	exact   bool     // read: the key is the reading worker's own, so version is known
}

// workload describes one traffic mix. cyclesPerSec is the frozen operation
// count: a run of S seconds executes round(cyclesPerSec*S) cycles per worker
// whatever the speed of the tree under test, so two commits do equal work.
type workload struct {
	name, why    string
	poolPages    int      // buffer-pool frames; 0 keeps every table in memory
	pinned       []string // relations kept resident beside the pool
	loners       int
	history      bool // sql_spill: load the History table at set-up
	groupSize    int  // members per coordination
	coordsPerCyc int
	cyclesPerSec float64
	stmts        []int
	cycle        func(g *scriptGen, w, c int, dst []op) []op
}

const numWorkers = 2

var workloads = []*workload{
	{
		name:      "pairs_durable",
		why:       "prepared pairs on an empty pending set: the unloaded arrival path (wire, bind, park+match, install, WAL commit, event)",
		groupSize: 2, coordsPerCyc: 8, cyclesPerSec: 150,
		stmts: []int{stPair, stFlightRead, stFlightWrite},
		cycle: travelCycle,
	},
	{
		name:      "loaded_pending",
		why:       "same cycle behind 2000 never-matching pending queries: the gap to pairs_durable is the O(pending) cost in coord",
		loners:    2000,
		groupSize: 2, coordsPerCyc: 8, cyclesPerSec: 42,
		stmts: []int{stPair, stFlightRead, stFlightWrite},
		cycle: travelCycle,
	},
	{
		name:      "groups_text",
		why:       "groups of 4 booking flight and hotel as SQL text: parse+compile per arrival, k-way search, two-relation grounding",
		groupSize: 4, coordsPerCyc: 8, cyclesPerSec: 80,
		stmts: []int{stFlightRead, stFlightWrite},
		cycle: travelCycle,
	},
	{
		name:      "sql_spill",
		why:       "plain SQL on a table five times the buffer pool beside one pinned pair: engine, plan, txn, pool and plain WAL commits",
		poolPages: poolPages, pinned: []string{"Flights", "Hotels"},
		history:   true,
		groupSize: 2, coordsPerCyc: 1, cyclesPerSec: 11,
		stmts: []int{stPair, stHistoryRead, stHistoryWrite},
		cycle: spillCycle,
	},
}

func findWorkload(name string) *workload {
	for _, wl := range workloads {
		if wl.name == name {
			return wl
		}
	}
	return nil
}

// serverArgs are the flags youtopia-server gets beyond the common ones.
func (wl *workload) serverArgs() []string {
	if wl.poolPages == 0 {
		return nil
	}
	return []string{"-pool-pages", fmt.Sprint(wl.poolPages), "-pin", strings.Join(wl.pinned, ",")}
}

// coreConfig configures an in-process System the way youtopia-server
// configures its own from serverArgs on directory dir.
func (wl *workload) coreConfig(dir string) core.Config {
	return core.Config{WALPath: filepath.Join(dir, "wal"), WALSync: true,
		BufferPoolPages: wl.poolPages, PinnedRelations: wl.pinned}
}

// cycles is the frozen per-worker cycle count of a run of the given length.
func (wl *workload) cycles(seconds float64) int {
	n := int(wl.cyclesPerSec*seconds + 0.5)
	if n < 4 {
		n = 4
	}
	return n
}

// warmCycles is the warm-up every set-up ends with. It is a twentieth of the
// run, not a tenth, because a run sets up three times.
func warmCycles(cycles int) int {
	n := cycles / 20
	if n < 2 {
		n = 2
	}
	return n
}

// scriptGen generates a workload's script from the seed. Every draw is a
// function of (seed, worker, cycle index) alone, and cycles are generated in
// order per worker, so the server process run, the in-process replay and the
// hash all see the same operations.
type scriptGen struct {
	wl   *workload
	seed uint64
	tag  string
	// versions[w] holds the version worker w last wrote per key. Only the
	// owning worker reads or writes its map.
	versions [numWorkers]map[int64]int
}

func newScriptGen(wl *workload, seed int64) *scriptGen {
	g := &scriptGen{wl: wl, seed: uint64(seed), tag: fmt.Sprintf("s%05d", uint64(seed)%100000)}
	for w := range g.versions {
		g.versions[w] = make(map[int64]int)
	}
	return g
}

// pick is a splitmix64 draw keyed by (seed, worker, cycle, slot).
func (g *scriptGen) pick(w, c, slot int) uint64 {
	x := g.seed*0x9E3779B97F4A7C15 + uint64(w)<<56 + uint64(c)<<8 + uint64(slot)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// ownKey moves k onto worker w's parity inside [lo, lo+n): a worker only
// writes keys congruent to its index modulo the worker count, so the script
// never conflicts with itself.
func ownKey(k, lo, n int64, w int) int64 {
	k = lo + (k-lo)%n
	if (k-int64(w))%numWorkers != 0 {
		k++
	}
	if k >= lo+n {
		k -= numWorkers
	}
	return k
}

// coordName is the traveler name of member m of coordination i of cycle c:
// fixed width, so WAL bytes per op do not depend on the seed.
func (g *scriptGen) coordName(w, c, i, m int) string {
	return fmt.Sprintf("%sw%dc%07do%dm%d", g.tag, w, c, i, m)
}

// coordGroup is the part of a traveler name shared by one coordination.
func coordGroup(name string) string {
	if i := strings.LastIndexByte(name, 'm'); i > 0 {
		return name[:i]
	}
	return name
}

func (g *scriptGen) coordOp(w, c, i int) op {
	dest := travel.Destinations[g.pick(w, c, i)%uint64(len(travel.Destinations))]
	k := g.wl.groupSize
	o := op{kind: opCoord, stmt: -1, dest: dest, members: make([]member, k)}
	names := make([]string, k)
	for m := range names {
		names[m] = g.coordName(w, c, i, m)
	}
	if k == 2 {
		o.stmt = stPair
		o.members[0] = member{name: names[0], params: value.Tuple{value.NewString(names[0]), value.NewString(dest), value.NewString(names[1])}}
		o.members[1] = member{name: names[1], params: value.Tuple{value.NewString(names[1]), value.NewString(dest), value.NewString(names[0])}}
		return o
	}
	o.trip = true
	f, h := travel.FlightFilter{Dest: dest}, travel.HotelFilter{City: dest}
	for m, self := range names {
		friends := make([]string, 0, k-1)
		for j, other := range names {
			if j != m {
				friends = append(friends, other)
			}
		}
		o.members[m] = member{name: self, sql: travel.BuildTripQuery(self, friends, f, h)}
	}
	return o
}

// lonerParams is the parameter vector of never-matching pending query i: its
// partner never arrives.
func (g *scriptGen) lonerParams(i int) value.Tuple {
	dest := travel.Destinations[i%len(travel.Destinations)]
	return value.Tuple{
		value.NewString(fmt.Sprintf("%sloner%05d", g.tag, i)),
		value.NewString(dest),
		value.NewString(fmt.Sprintf("%sghost%05d", g.tag, i)),
	}
}

func (g *scriptGen) flightWrite(w int, fno int64) op {
	v := g.versions[w][fno] + 1
	g.versions[w][fno] = v
	return op{kind: opWrite, stmt: stFlightWrite, key: fno, version: v,
		params: value.Tuple{value.NewFloat(flightPrice(fno, v)), value.NewInt(fno)}}
}

// readOp is a point read by primary key. A worker knows the version of the
// keys it owns, because only it writes them and it waits for every write.
func (g *scriptGen) readOp(w, stmt int, key int64) op {
	return op{kind: opRead, stmt: stmt, key: key, params: value.Tuple{value.NewInt(key)},
		exact: (key-int64(w))%numWorkers == 0, version: g.versions[w][key]}
}

// primeOps gives every flight worker w owns a known price, so that range
// scans and point reads have exact expected results from the first cycle.
// sql_spill never writes a flight and needs none.
func (g *scriptGen) primeOps(w int) []op {
	if g.wl.history {
		return nil
	}
	var ops []op
	for fno := int64(firstFno + w); fno < firstFno+numFlights; fno += numWorkers {
		ops = append(ops, g.flightWrite(w, fno))
	}
	return ops
}

// travelCycle is the cycle of the three coordination workloads: eight
// coordinations, one point read, one range scan, one write.
func travelCycle(g *scriptGen, w, c int, dst []op) []op {
	for i := 0; i < g.wl.coordsPerCyc; i++ {
		dst = append(dst, g.coordOp(w, c, i))
	}
	fno := firstFno + int64(g.pick(w, c, 100)%numFlights)
	dst = append(dst, g.readOp(w, stFlightRead, fno))
	// [lo-1, lo+39] holds exactly the eight flights from k on; see flightPrice.
	k := int64(g.pick(w, c, 101) % (numFlights - 8 + 1))
	lo := 200 + 5*float64(k) - 1
	dst = append(dst, op{kind: opScan, stmt: -1, key: firstFno + k,
		sql: fmt.Sprintf("SELECT fno FROM Flights WHERE price BETWEEN %.1f AND %.1f", lo, lo+40)})
	wk := ownKey(firstFno+int64(g.pick(w, c, 102)%numFlights), firstFno, numFlights, w)
	return append(dst, g.flightWrite(w, wk))
}

// spillCycle is sql_spill's cycle: six cold point reads, one range scan, two
// writes and one pair on the pinned relations.
func spillCycle(g *scriptGen, w, c int, dst []op) []op {
	base := int64(g.pick(w, 0, 200) % historyRows)
	for i := 0; i < 6; i++ {
		id := (base + int64(c*6+i)*historyStride) % historyRows
		dst = append(dst, g.readOp(w, stHistoryRead, id))
	}
	lo := int64(g.pick(w, c, 201) % (historyRows - scanWidth))
	dst = append(dst, op{kind: opScan, stmt: -1, key: lo,
		sql: fmt.Sprintf("SELECT id FROM History WHERE id BETWEEN %d AND %d", lo, lo+scanWidth-1)})
	for i := 0; i < 2; i++ {
		id := ownKey(int64(g.pick(w, c, 202+i)%historyRows), 0, historyRows, w)
		v := g.versions[w][id] + 1
		g.versions[w][id] = v
		dst = append(dst, op{kind: opWrite, stmt: stHistoryWrite, key: id, version: v,
			params: value.Tuple{value.NewString(historyBodyOf(id, v)), value.NewInt(id)}})
	}
	return append(dst, g.coordOp(w, c, 0))
}

// hash fingerprints the script: the frozen counts and the rendered
// operations of the first cycles of every worker.
func scriptHash(wl *workload, seed int64, seconds float64) string {
	g := newScriptGen(wl, seed)
	h := sha256.New()
	fmt.Fprintf(h, "%s cycles=%d warm=%d loners=%d\n", wl.name, wl.cycles(seconds), warmCycles(wl.cycles(seconds)), wl.loners)
	var ops []op
	for w := 0; w < numWorkers; w++ {
		for c := 0; c < 32; c++ {
			ops = wl.cycle(g, w, c, ops[:0])
			for _, o := range ops {
				fmt.Fprintf(h, "%d %d %q %v\n", o.kind, o.stmt, o.sql, o.params)
				for _, m := range o.members {
					fmt.Fprintf(h, " %q %v\n", m.sql, m.params)
				}
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
