// Package travel implements the middle tier of the paper's demonstration
// application: a travel Web site where users coordinate flight and hotel
// reservations with their friends (§2.2, §3.1).
//
// The package provides the "standard functionality of a travel Web site such
// as searching for flights and hotels, selecting specific flights and
// hotels", a simulated social network standing in for the Facebook API
// (friend lists and notification messages), an account view of pending and confirmed reservations, and the
// translation of coordination requests into entangled queries submitted to
// the Youtopia core.
package travel

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/value"
)

// Answer relation names used by the travel application.
const (
	RelFlight = "Reservation"      // (traveler STRING, fno INT)
	RelHotel  = "HotelReservation" // (traveler STRING, hno INT)
	RelSeat   = "SeatReservation"  // (traveler STRING, fno INT, seat INT)
)

// quote escapes a string for embedding as a SQL literal.
func quote(s string) string { return "'" + strings.ReplaceAll(s, "'", "''") + "'" }

// writeQuote writes a quoted SQL string literal into b without the
// intermediate string quote would allocate (builders render one query per
// booking request on loaded systems).
func writeQuote(b *strings.Builder, s string) {
	b.WriteByte('\'')
	if strings.ContainsRune(s, '\'') {
		b.WriteString(strings.ReplaceAll(s, "'", "''"))
	} else {
		b.WriteString(s)
	}
	b.WriteByte('\'')
}

// FlightFilter narrows the acceptable flights of a booking request — the
// "certain date and price constraints" of the paper's intro.
type FlightFilter struct {
	Dest     string
	Origin   string  // optional
	MaxPrice float64 // 0 = unconstrained
	// DayFrom/DayTo bound the departure day (inclusive); zero = open.
	DayFrom, DayTo int
	// Capacity, when positive, excludes flights that already hold that many
	// reservations. Because the shared answer relation is an ordinary
	// queryable table, the exclusion is just another residual predicate:
	//   fno NOT IN (SELECT a2 FROM Reservation GROUP BY a2 HAVING COUNT(*) >= cap)
	// — coordination composes with capacity without any special machinery.
	Capacity int
}

func (f FlightFilter) subquery() string {
	var b strings.Builder
	f.writeSubquery(&b)
	return b.String()
}

func (f FlightFilter) writeSubquery(b *strings.Builder) {
	b.WriteString("SELECT fno FROM Flights WHERE dest = ")
	writeQuote(b, f.Dest)
	if f.Origin != "" {
		b.WriteString(" AND origin = ")
		writeQuote(b, f.Origin)
	}
	if f.MaxPrice > 0 {
		b.WriteString(" AND price <= ")
		b.WriteString(strconv.FormatFloat(f.MaxPrice, 'g', -1, 64))
	}
	if f.DayFrom > 0 || f.DayTo > 0 {
		from, to := f.DayFrom, f.DayTo
		if from == 0 {
			from = 1
		}
		if to == 0 {
			to = 1 << 30
		}
		fmt.Fprintf(b, " AND day BETWEEN %d AND %d", from, to)
	}
}

// HotelFilter narrows acceptable hotels.
type HotelFilter struct {
	City     string
	MaxPrice float64
	// NameLike, when set, restricts hotels by name with a SQL LIKE pattern
	// (% and _ wildcards).
	NameLike string
}

func (h HotelFilter) subquery() string {
	var b strings.Builder
	h.writeSubquery(&b)
	return b.String()
}

func (h HotelFilter) writeSubquery(b *strings.Builder) {
	b.WriteString("SELECT hno FROM Hotels WHERE city = ")
	writeQuote(b, h.City)
	if h.MaxPrice > 0 {
		b.WriteString(" AND price <= ")
		b.WriteString(strconv.FormatFloat(h.MaxPrice, 'g', -1, 64))
	}
	if h.NameLike != "" {
		b.WriteString(" AND name LIKE ")
		writeQuote(b, h.NameLike)
	}
}

// BuildFlightQuery renders the entangled query for "book a flight matching
// filter, on the same flight as each of friends". With no friends it
// degenerates to an uncoordinated (immediately answerable) booking — the
// direct-booking path of Figure 4.
func BuildFlightQuery(self string, friends []string, f FlightFilter) string {
	return BuildFlightQueryInto(RelFlight, self, friends, f)
}

// BuildFlightQueryInto is BuildFlightQuery over an arbitrary answer
// relation. Workloads use it to spread coordination across disjoint relation
// footprints, which the sharded coordinator routes to independent lanes.
func BuildFlightQueryInto(rel, self string, friends []string, f FlightFilter) string {
	var b strings.Builder
	b.Grow(160 + 48*len(friends))
	b.WriteString("SELECT ")
	writeQuote(&b, self)
	b.WriteString(", fno INTO ANSWER ")
	b.WriteString(rel)
	b.WriteString("\nWHERE fno IN (")
	f.writeSubquery(&b)
	b.WriteByte(')')
	if f.Capacity > 0 {
		group := len(friends) + 1
		if group > f.Capacity {
			// The whole group can never fit; make the request unmatchable
			// rather than silently over-booking.
			b.WriteString("\nAND 1 = 0")
		} else {
			// Leave headroom for this whole coordination group: the match
			// installs `group` tuples at once.
			fmt.Fprintf(&b, "\nAND fno NOT IN (SELECT a2 FROM %s GROUP BY a2 HAVING COUNT(*) > %d)",
				rel, f.Capacity-group)
		}
	}
	for _, fr := range friends {
		b.WriteString("\nAND (")
		writeQuote(&b, fr)
		b.WriteString(", fno) IN ANSWER ")
		b.WriteString(rel)
	}
	b.WriteString("\nCHOOSE 1")
	return b.String()
}

// BuildTripQuery renders the two-atom entangled query for "book a flight AND
// a hotel, both shared with each of friends" — §3.1's flight-and-hotel
// scenario, including its group variant.
func BuildTripQuery(self string, friends []string, f FlightFilter, h HotelFilter) string {
	var b strings.Builder
	b.Grow(256 + 96*len(friends))
	b.WriteString("SELECT (")
	writeQuote(&b, self)
	b.WriteString(", fno) INTO ANSWER " + RelFlight + ", (")
	writeQuote(&b, self)
	b.WriteString(", hno) INTO ANSWER " + RelHotel + "\nWHERE fno IN (")
	f.writeSubquery(&b)
	b.WriteString(")\nAND hno IN (")
	h.writeSubquery(&b)
	b.WriteByte(')')
	for _, fr := range friends {
		b.WriteString("\nAND (")
		writeQuote(&b, fr)
		b.WriteString(", fno) IN ANSWER " + RelFlight + "\nAND (")
		writeQuote(&b, fr)
		b.WriteString(", hno) IN ANSWER " + RelHotel)
	}
	b.WriteString("\nCHOOSE 1")
	return b.String()
}

// BuildAdjacentSeatQuery renders the entangled query for "fly in an adjacent
// seat to friend" (the first §3.1 scenario offers this stronger variant).
// Adjacency is encoded relationally: the SeatPairs base table lists the
// adjacent (seat1, seat2) pairs of every flight symmetrically, so two
// symmetric queries ground to complementary seats of one pair by pure
// unification — no arithmetic across queries is needed.
func BuildAdjacentSeatQuery(self, friend string, f FlightFilter) string {
	return fmt.Sprintf(`SELECT %s, fno, myseat INTO ANSWER %s
WHERE (fno, myseat, yourseat) IN (SELECT p.fno, p.seat1, p.seat2 FROM SeatPairs p, Flights f WHERE p.fno = f.fno AND %s)
AND (%s, fno, yourseat) IN ANSWER %s
CHOOSE 1`,
		quote(self), RelSeat,
		strings.Join(flightConds("f", f), " AND "),
		quote(friend), RelSeat)
}

func flightConds(alias string, f FlightFilter) []string {
	conds := []string{alias + ".dest = " + quote(f.Dest)}
	if f.Origin != "" {
		conds = append(conds, alias+".origin = "+quote(f.Origin))
	}
	if f.MaxPrice > 0 {
		conds = append(conds, fmt.Sprintf("%s.price <= %g", alias, f.MaxPrice))
	}
	if f.DayFrom > 0 || f.DayTo > 0 {
		from, to := f.DayFrom, f.DayTo
		if from == 0 {
			from = 1
		}
		if to == 0 {
			to = 1 << 30
		}
		conds = append(conds, fmt.Sprintf("%s.day BETWEEN %d AND %d", alias, from, to))
	}
	return conds
}

// BuildDirectBooking renders the constraint-free entangled query used when a
// user, having seen a friend's existing booking (Figure 4), books a specific
// flight directly.
func BuildDirectBooking(self string, fno int64) string {
	return fmt.Sprintf("SELECT %s, fno INTO ANSWER %s\nWHERE fno = %d\nCHOOSE 1", quote(self), RelFlight, fno)
}

// ---------------------------------------------------------------------------
// Prepared templates
//
// The builders above embed every constant into SQL text, so each booking
// request costs a full parse + compile and floats detour through %g
// formatting. The *Template/*Params pairs below split each query into a
// placeholder template — whose text depends only on the request SHAPE
// (answer relation, friend count, which optional filter pieces are present)
// — and a typed parameter vector. The middle tier prepares the template once
// (the core's statement cache makes that automatic) and binds a fresh vector
// per booking: parse-once/bind-many, with float parameters carried as typed
// float64 end to end.

// writeSubqueryTemplate renders the flight-filter subquery with placeholders
// for every present constant; appendParams appends the matching vector
// values in the same textual order.
func (f FlightFilter) writeSubqueryTemplate(b *strings.Builder) {
	b.WriteString("SELECT fno FROM Flights WHERE dest = ?")
	if f.Origin != "" {
		b.WriteString(" AND origin = ?")
	}
	if f.MaxPrice > 0 {
		b.WriteString(" AND price <= ?")
	}
	if f.DayFrom > 0 || f.DayTo > 0 {
		b.WriteString(" AND day BETWEEN ? AND ?")
	}
}

func (f FlightFilter) appendParams(t value.Tuple) value.Tuple {
	t = append(t, value.NewString(f.Dest))
	if f.Origin != "" {
		t = append(t, value.NewString(f.Origin))
	}
	if f.MaxPrice > 0 {
		// Typed float parameter: no %g text round trip, bit-exact.
		t = append(t, value.NewFloat(f.MaxPrice))
	}
	if f.DayFrom > 0 || f.DayTo > 0 {
		from, to := f.DayFrom, f.DayTo
		if from == 0 {
			from = 1
		}
		if to == 0 {
			to = 1 << 30
		}
		t = append(t, value.NewInt(int64(from)), value.NewInt(int64(to)))
	}
	return t
}

func (h HotelFilter) writeSubqueryTemplate(b *strings.Builder) {
	b.WriteString("SELECT hno FROM Hotels WHERE city = ?")
	if h.MaxPrice > 0 {
		b.WriteString(" AND price <= ?")
	}
	if h.NameLike != "" {
		b.WriteString(" AND name LIKE ?")
	}
}

func (h HotelFilter) appendParams(t value.Tuple) value.Tuple {
	t = append(t, value.NewString(h.City))
	if h.MaxPrice > 0 {
		t = append(t, value.NewFloat(h.MaxPrice))
	}
	if h.NameLike != "" {
		t = append(t, value.NewString(h.NameLike))
	}
	return t
}

// FlightQueryTemplate is BuildFlightQueryInto with placeholders: the self
// name, every filter constant and every friend name become parameters. Two
// requests with the same relation, friend count and filter shape share one
// template text (and therefore one cached compilation).
func FlightQueryTemplate(rel string, nFriends int, f FlightFilter) string {
	var b strings.Builder
	b.Grow(160 + 32*nFriends)
	b.WriteString("SELECT ?, fno INTO ANSWER ")
	b.WriteString(rel)
	b.WriteString("\nWHERE fno IN (")
	f.writeSubqueryTemplate(&b)
	b.WriteByte(')')
	if f.Capacity > 0 {
		group := nFriends + 1
		if group > f.Capacity {
			b.WriteString("\nAND 1 = 0")
		} else {
			fmt.Fprintf(&b, "\nAND fno NOT IN (SELECT a2 FROM %s GROUP BY a2 HAVING COUNT(*) > %d)",
				rel, f.Capacity-group)
		}
	}
	for i := 0; i < nFriends; i++ {
		b.WriteString("\nAND (?, fno) IN ANSWER ")
		b.WriteString(rel)
	}
	b.WriteString("\nCHOOSE 1")
	return b.String()
}

// FlightQueryParams builds the vector FlightQueryTemplate's placeholders
// bind, in textual order: self, filter constants, friends.
func FlightQueryParams(self string, friends []string, f FlightFilter) value.Tuple {
	t := make(value.Tuple, 0, 2+len(friends)+4)
	t = append(t, value.NewString(self))
	t = f.appendParams(t)
	for _, fr := range friends {
		t = append(t, value.NewString(fr))
	}
	return t
}

// TripQueryTemplate is BuildTripQuery with placeholders (see
// FlightQueryTemplate).
func TripQueryTemplate(nFriends int, f FlightFilter, h HotelFilter) string {
	var b strings.Builder
	b.Grow(256 + 64*nFriends)
	b.WriteString("SELECT (?, fno) INTO ANSWER " + RelFlight + ", (?, hno) INTO ANSWER " + RelHotel)
	b.WriteString("\nWHERE fno IN (")
	f.writeSubqueryTemplate(&b)
	b.WriteString(")\nAND hno IN (")
	h.writeSubqueryTemplate(&b)
	b.WriteByte(')')
	for i := 0; i < nFriends; i++ {
		b.WriteString("\nAND (?, fno) IN ANSWER " + RelFlight + "\nAND (?, hno) IN ANSWER " + RelHotel)
	}
	b.WriteString("\nCHOOSE 1")
	return b.String()
}

// TripQueryParams builds the vector for TripQueryTemplate: self twice (one
// per answer atom), flight filter, hotel filter, then each friend twice.
func TripQueryParams(self string, friends []string, f FlightFilter, h HotelFilter) value.Tuple {
	t := make(value.Tuple, 0, 2+2*len(friends)+6)
	t = append(t, value.NewString(self), value.NewString(self))
	t = f.appendParams(t)
	t = h.appendParams(t)
	for _, fr := range friends {
		t = append(t, value.NewString(fr), value.NewString(fr))
	}
	return t
}

// AdjacentSeatTemplate is BuildAdjacentSeatQuery with placeholders.
func AdjacentSeatTemplate(f FlightFilter) string {
	var b strings.Builder
	b.WriteString("SELECT ?, fno, myseat INTO ANSWER " + RelSeat)
	b.WriteString("\nWHERE (fno, myseat, yourseat) IN (SELECT p.fno, p.seat1, p.seat2 FROM SeatPairs p, Flights f WHERE p.fno = f.fno AND f.dest = ?")
	if f.Origin != "" {
		b.WriteString(" AND f.origin = ?")
	}
	if f.MaxPrice > 0 {
		b.WriteString(" AND f.price <= ?")
	}
	if f.DayFrom > 0 || f.DayTo > 0 {
		b.WriteString(" AND f.day BETWEEN ? AND ?")
	}
	b.WriteString(")\nAND (?, fno, yourseat) IN ANSWER " + RelSeat + "\nCHOOSE 1")
	return b.String()
}

// AdjacentSeatParams builds the vector for AdjacentSeatTemplate.
func AdjacentSeatParams(self, friend string, f FlightFilter) value.Tuple {
	t := make(value.Tuple, 0, 6)
	t = append(t, value.NewString(self))
	t = f.appendParams(t)
	return append(t, value.NewString(friend))
}

// DirectBookingTemplate is BuildDirectBooking with placeholders.
const DirectBookingTemplate = "SELECT ?, fno INTO ANSWER " + RelFlight + "\nWHERE fno = ?\nCHOOSE 1"

// DirectBookingParams builds the vector for DirectBookingTemplate.
func DirectBookingParams(self string, fno int64) value.Tuple {
	return value.Tuple{value.NewString(self), value.NewInt(fno)}
}
