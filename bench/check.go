package main

import (
	"fmt"
	"strings"

	"repro/internal/server"
	"repro/internal/travel"
	"repro/internal/value"
)

// describe names an op in a failure report.
func describe(o *op) string {
	switch o.kind {
	case opCoord:
		return fmt.Sprintf("coord %s k=%d dest=%s", coordGroup(o.members[0].name), len(o.members), o.dest)
	case opScan:
		return "scan " + o.sql
	default:
		return fmt.Sprintf("%s key=%d version=%d", opKindNames[o.kind], o.key, o.version)
	}
}

// answerOf returns the single tuple an event carries for the relation.
func answerOf(ev server.Event, rel string) (value.Tuple, error) {
	for _, a := range ev.Answers {
		if strings.EqualFold(a.Relation, rel) {
			if len(a.Tuples) != 1 {
				return nil, fmt.Errorf("%d tuples in %s, want exactly 1", len(a.Tuples), rel)
			}
			return a.Tuples[0], nil
		}
	}
	return nil, fmt.Errorf("no answer in %s", rel)
}

// checkCoord holds the answer events of one coordination to the members'
// queries: one outcome per submission, every member on the same flight (and
// hotel) at the destination it asked for, answered in one joint match.
func checkCoord(o *op, evs []server.Event) (acked, error) {
	a := acked{group: coordGroup(o.members[0].name), k: len(o.members)}
	if len(evs) != len(o.members) {
		return a, fmt.Errorf("%d events for %d members", len(evs), len(o.members))
	}
	for j, ev := range evs {
		m := o.members[j]
		if ev.Canceled {
			return a, fmt.Errorf("member %s was canceled", m.name)
		}
		if ev.MatchSize != len(o.members) {
			return a, fmt.Errorf("member %s matched in a group of %d, want %d", m.name, ev.MatchSize, len(o.members))
		}
		want := 1
		if o.trip {
			want = 2
		}
		if len(ev.Answers) != want {
			return a, fmt.Errorf("member %s got answers in %d relations, want %d", m.name, len(ev.Answers), want)
		}
		ft, err := answerOf(ev, travel.RelFlight)
		if err != nil {
			return a, fmt.Errorf("member %s: %v", m.name, err)
		}
		if len(ft) != 2 || ft[0].Str() != m.name {
			return a, fmt.Errorf("member %s got flight tuple %v", m.name, ft)
		}
		fno := ft[1].Int()
		if fno < firstFno || fno >= firstFno+numFlights || flightDest(fno) != o.dest {
			return a, fmt.Errorf("member %s got flight %d, not a flight to %s", m.name, fno, o.dest)
		}
		if j > 0 && fno != a.fno {
			return a, fmt.Errorf("member %s is on flight %d, partner on %d", m.name, fno, a.fno)
		}
		a.fno = fno
		if !o.trip {
			continue
		}
		ht, err := answerOf(ev, travel.RelHotel)
		if err != nil {
			return a, fmt.Errorf("member %s: %v", m.name, err)
		}
		if len(ht) != 2 || ht[0].Str() != m.name {
			return a, fmt.Errorf("member %s got hotel tuple %v", m.name, ht)
		}
		hno := ht[1].Int()
		if hno < 1 || hno > hotelsPerCity*int64(len(travel.Destinations)) || hotelCity(hno) != o.dest {
			return a, fmt.Errorf("member %s got hotel %d, not a hotel in %s", m.name, hno, o.dest)
		}
		if j > 0 && hno != a.hno {
			return a, fmt.Errorf("member %s is in hotel %d, partner in %d", m.name, hno, a.hno)
		}
		a.hno = hno
	}
	return a, nil
}

// checkRead holds a point read to the row the script knows: the right key
// always, the exact version when the reader owns the key.
func checkRead(o *op, res *server.QueryResult) error {
	if len(res.Rows) != 1 {
		return fmt.Errorf("%d rows, want 1", len(res.Rows))
	}
	row := res.Rows[0]
	if o.stmt == stHistoryRead {
		body := row[0].Str()
		if len(body) != historyBody || !strings.HasPrefix(body, fmt.Sprintf("%08d:", o.key)) {
			return fmt.Errorf("body %.20q is not row %d's", body, o.key)
		}
		if o.exact && body != historyBodyOf(o.key, o.version) {
			return fmt.Errorf("body %.20q, want version %d", body, o.version)
		}
		return nil
	}
	if len(row) != 3 || row[0].Int() != o.key || row[1].Str() != flightDest(o.key) {
		return fmt.Errorf("row %v is not flight %d", row, o.key)
	}
	if o.exact && row[2].Float() != flightPrice(o.key, o.version) {
		return fmt.Errorf("price %v, want %v (version %d)", row[2], flightPrice(o.key, o.version), o.version)
	}
	return nil
}

// checkScan holds a range scan to the exact key set the script's ranges are
// built to return: scanWidth consecutive History ids, or eight consecutive
// flights.
func checkScan(wl *workload, o *op, res *server.QueryResult) error {
	want := int64(8)
	if wl.history {
		want = scanWidth
	}
	if int64(len(res.Rows)) != want {
		return fmt.Errorf("%d rows, want %d", len(res.Rows), want)
	}
	seen := make(map[int64]bool, want)
	for _, row := range res.Rows {
		k := row[0].Int()
		if k < o.key || k >= o.key+want || seen[k] {
			return fmt.Errorf("unexpected or repeated key %d (range starts at %d)", k, o.key)
		}
		seen[k] = true
	}
	return nil
}

// checkPlain holds the result of a plain statement to the script: a point
// read's row, a range scan's key set, a write's one affected row.
func checkPlain(wl *workload, o *op, res *server.QueryResult) error {
	switch o.kind {
	case opRead:
		return checkRead(o, res)
	case opScan:
		return checkScan(wl, o, res)
	}
	if res.Affected != 1 {
		return fmt.Errorf("affected %d rows, want 1", res.Affected)
	}
	return nil
}

// verifyDurable checks the recovered server against what the run was
// acknowledged: every acknowledged answer tuple is there, no coordination is
// there in part, no loner was answered, and the last acknowledged write of
// every flight and of a sample of History rows is what a read returns.
func (s *session) verifyDurable(c *server.Client) error {
	k := s.wl.groupSize
	flights, err := dumpAnswers(c, travel.RelFlight)
	if err != nil {
		return err
	}
	var hotels map[string]int64
	trip := k > 2
	if trip {
		if hotels, err = dumpAnswers(c, travel.RelHotel); err != nil {
			return err
		}
	}
	for _, l := range s.logs {
		for _, a := range l.acked {
			for m := 0; m < a.k; m++ {
				name := fmt.Sprintf("%sm%d", a.group, m)
				if got, ok := flights[name]; !ok || got != a.fno {
					return fmt.Errorf("durability: acknowledged answer (%s, %d) lost in recovery (found %d, present %v)", name, a.fno, got, ok)
				}
				if !trip {
					continue
				}
				if got, ok := hotels[name]; !ok || got != a.hno {
					return fmt.Errorf("durability: acknowledged answer (%s, hotel %d) lost in recovery (found %d, present %v)", name, a.hno, got, ok)
				}
			}
		}
	}
	for _, rel := range []map[string]int64{flights, hotels} {
		if err := wholeGroups(rel, k); err != nil {
			return err
		}
	}
	if trip && len(flights) != len(hotels) {
		return fmt.Errorf("durability: %d flight answers but %d hotel answers", len(flights), len(hotels))
	}

	if !s.wl.history {
		res, err := c.Query("SELECT fno, price FROM Flights")
		if err != nil {
			return err
		}
		prices := make(map[int64]float64, len(res.Rows))
		for _, row := range res.Rows {
			prices[row[0].Int()] = row[1].Float()
		}
		for w := range s.gen.versions {
			for fno, v := range s.gen.versions[w] {
				if prices[fno] != flightPrice(fno, v) {
					return fmt.Errorf("durability: flight %d has price %v after recovery, last acknowledged write was %v", fno, prices[fno], flightPrice(fno, v))
				}
			}
		}
		return nil
	}
	res, err := c.Query("SELECT COUNT(*) FROM History")
	if err != nil {
		return err
	}
	if n := res.Rows[0][0].Int(); n != historyRows {
		return fmt.Errorf("durability: History holds %d rows after recovery, want %d", n, historyRows)
	}
	for w := range s.gen.versions {
		checked := 0
		for id, v := range s.gen.versions[w] {
			if checked++; checked > historyRows/100/numWorkers {
				break // a 1 % sample of the table
			}
			res, err := c.Query(fmt.Sprintf("SELECT body FROM History WHERE id = %d", id))
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || res.Rows[0][0].Str() != historyBodyOf(id, v) {
				return fmt.Errorf("durability: History row %d after recovery is not its last acknowledged version %d", id, v)
			}
		}
	}
	return nil
}

// dumpAnswers reads a whole answer relation as traveler → booked number.
func dumpAnswers(c *server.Client, rel string) (map[string]int64, error) {
	res, err := c.Query("SELECT a1, a2 FROM " + rel)
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(res.Rows))
	for _, row := range res.Rows {
		name := row[0].Str()
		if _, dup := out[name]; dup {
			return nil, fmt.Errorf("durability: %s holds two answers for %s", rel, name)
		}
		out[name] = row[1].Int()
	}
	return out, nil
}

// wholeGroups checks that every coordination visible in an answer relation
// is there with all k members on one number — a coordination cut off by the
// crash may be missing, never partial — and that no loner was answered.
func wholeGroups(rel map[string]int64, k int) error {
	type group struct {
		n   int
		num int64
	}
	groups := make(map[string]*group, len(rel)/k+1)
	for name, num := range rel {
		if strings.Contains(name, "loner") || strings.Contains(name, "ghost") {
			return fmt.Errorf("durability: never-matching query %s has an answer", name)
		}
		g := groups[coordGroup(name)]
		if g == nil {
			g = &group{num: num}
			groups[coordGroup(name)] = g
		}
		if g.num != num {
			return fmt.Errorf("durability: coordination %s is split over %d and %d", coordGroup(name), g.num, num)
		}
		g.n++
	}
	for name, g := range groups {
		if g.n != k {
			return fmt.Errorf("durability: coordination %s is visible with %d of %d members", name, g.n, k)
		}
	}
	return nil
}
