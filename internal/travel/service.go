package travel

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/value"
)

// Status of a booking request.
type Status string

// Booking statuses shown in the account view.
const (
	StatusPending   Status = "pending"
	StatusConfirmed Status = "confirmed"
	StatusCanceled  Status = "canceled"
)

// Message is a notification delivered to a user — the stand-in for the
// demo's "Jerry is notified of the success of his request via a Facebook
// message".
type Message struct {
	To   string
	Text string
	At   time.Time
}

// Booking is one coordination request and its eventual outcome.
type Booking struct {
	ID      uint64 // the underlying entangled query id
	User    string
	Kind    string // "flight" | "trip" | "seat" | "direct"
	Friends []string
	SQL     string

	mu     sync.Mutex
	status Status
	flight int64 // 0 until confirmed (flight-bearing kinds)
	hotel  int64
	seat   int64
	done   chan struct{}
}

// Status returns the booking's current status.
func (b *Booking) Status() Status {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.status
}

// Details returns the confirmed flight/hotel/seat numbers (zero until
// confirmed).
func (b *Booking) Details() (flight, hotel, seat int64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.flight, b.hotel, b.seat
}

// Done is closed when the booking reaches a terminal status.
func (b *Booking) Done() <-chan struct{} { return b.done }

// Await blocks until the booking resolves or the timeout elapses.
func (b *Booking) Await(timeout time.Duration) (Status, error) {
	select {
	case <-b.done:
		return b.Status(), nil
	case <-time.After(timeout):
		return b.Status(), fmt.Errorf("travel: booking %d still %s after %s", b.ID, b.Status(), timeout)
	}
}

// Service is the travel site's middle tier.
type Service struct {
	sys *core.System

	mu       sync.Mutex
	friends  map[string]map[string]bool
	inbox    map[string][]Message
	bookings []*Booking
}

// NewService builds the middle tier over a Youtopia system whose travel
// schema is already seeded (Seed or SeedFigure1).
func NewService(sys *core.System) *Service {
	return &Service{
		sys:     sys,
		friends: make(map[string]map[string]bool),
		inbox:   make(map[string][]Message),
	}
}

// System exposes the underlying Youtopia instance.
func (s *Service) System() *core.System { return s.sys }

// --- simulated social network (Facebook substitution) ----------------------

// Befriend records a mutual friendship, creating users as needed ("logging
// in to Facebook so that contact information can be imported").
func (s *Service) Befriend(a, b string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.friends[a] == nil {
		s.friends[a] = make(map[string]bool)
	}
	if s.friends[b] == nil {
		s.friends[b] = make(map[string]bool)
	}
	s.friends[a][b] = true
	s.friends[b][a] = true
}

// Friends returns a user's friend list, sorted — the data behind Figure 3's
// "choosing a friend for flight coordination".
func (s *Service) Friends(user string) []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.friends[user]))
	for f := range s.friends[user] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// notify posts a message to a user's inbox.
func (s *Service) notify(to, text string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.inbox[to] = append(s.inbox[to], Message{To: to, Text: text, At: time.Now()})
}

// Inbox returns a snapshot of a user's notifications.
func (s *Service) Inbox(user string) []Message {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Message(nil), s.inbox[user]...)
}

// --- search / browse --------------------------------------------------------

// FlightInfo is one row of a flight search result.
type FlightInfo struct {
	Fno     int64
	Origin  string
	Dest    string
	Day     int64
	Price   float64
	Airline string
	// FriendsBooked lists the caller's friends already holding a reservation
	// on the flight (Figure 4).
	FriendsBooked []string
}

// SearchFlights lists flights matching the filter, cheapest first.
func (s *Service) SearchFlights(f FlightFilter) ([]FlightInfo, error) {
	res, err := s.sys.Query("SELECT fno, origin, dest, day, price, airline FROM Flights WHERE " +
		strings.Join(flightConds("Flights", f), " AND ") + " ORDER BY price")
	if err != nil {
		return nil, err
	}
	out := make([]FlightInfo, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = FlightInfo{
			Fno: r[0].Int(), Origin: r[1].Str(), Dest: r[2].Str(),
			Day: r[3].Int(), Price: r[4].Float(), Airline: r[5].Str(),
		}
	}
	return out, nil
}

// SearchFlightsWithFriends is the Figure 4 view: flights matching the filter
// annotated with which of user's friends already have bookings on them.
func (s *Service) SearchFlightsWithFriends(user string, f FlightFilter) ([]FlightInfo, error) {
	flights, err := s.SearchFlights(f)
	if err != nil {
		return nil, err
	}
	friendSet := make(map[string]bool)
	for _, fr := range s.Friends(user) {
		friendSet[fr] = true
	}
	booked := make(map[int64][]string)
	for _, tup := range s.sys.Answers().Tuples(RelFlight) {
		traveler, fno := tup[0].Str(), tup[1].Int()
		if friendSet[traveler] {
			booked[fno] = append(booked[fno], traveler)
		}
	}
	for i := range flights {
		fs := booked[flights[i].Fno]
		sort.Strings(fs)
		flights[i].FriendsBooked = fs
	}
	return flights, nil
}

// HotelInfo is one row of a hotel search result.
type HotelInfo struct {
	Hno   int64
	City  string
	Name  string
	Price float64
	// FriendsBooked lists the caller's friends already holding a reservation
	// in the hotel — the hotel-side analogue of Figure 4.
	FriendsBooked []string
}

// SearchHotelsWithFriends lists hotels matching the filter annotated with
// which of user's friends already have hotel reservations there.
func (s *Service) SearchHotelsWithFriends(user string, h HotelFilter) ([]HotelInfo, error) {
	res, err := s.sys.Query(fmt.Sprintf(
		"SELECT hno, city, name, price FROM Hotels WHERE hno IN (%s) ORDER BY price", h.subquery()))
	if err != nil {
		return nil, err
	}
	friendSet := make(map[string]bool)
	for _, fr := range s.Friends(user) {
		friendSet[fr] = true
	}
	booked := make(map[int64][]string)
	for _, tup := range s.sys.Answers().Tuples(RelHotel) {
		traveler, hno := tup[0].Str(), tup[1].Int()
		if friendSet[traveler] {
			booked[hno] = append(booked[hno], traveler)
		}
	}
	out := make([]HotelInfo, len(res.Rows))
	for i, r := range res.Rows {
		fs := booked[r[0].Int()]
		sort.Strings(fs)
		out[i] = HotelInfo{
			Hno: r[0].Int(), City: r[1].Str(), Name: r[2].Str(),
			Price: r[3].Float(), FriendsBooked: fs,
		}
	}
	return out, nil
}

// SearchHotels lists hotels matching the filter, cheapest first.
func (s *Service) SearchHotels(h HotelFilter) ([]value.Tuple, error) {
	res, err := s.sys.Query(fmt.Sprintf(
		"SELECT hno, city, name, price FROM Hotels WHERE hno IN (%s) ORDER BY price", h.subquery()))
	if err != nil {
		return nil, err
	}
	return res.Rows, nil
}

// --- booking ----------------------------------------------------------------

// BookFlight submits "fly to f.Dest on the same flight as friends" (§3.1
// scenarios 1, 3 and 4; friends may be empty, one, or a whole group).
//
// Booking requests go through prepared templates: all requests with the same
// shape (relation, friend count, filter pieces) share one parsed/compiled
// artifact — the core's statement cache keeps it alive — and only the typed
// parameter vector varies per request.
func (s *Service) BookFlight(user string, friends []string, f FlightFilter) (*Booking, error) {
	tmpl := FlightQueryTemplate(RelFlight, len(friends), f)
	return s.submit(user, "flight", friends, tmpl, FlightQueryParams(user, friends, f))
}

// BookTrip submits the combined flight+hotel coordination (§3.1 scenarios 2
// and 5).
func (s *Service) BookTrip(user string, friends []string, f FlightFilter, h HotelFilter) (*Booking, error) {
	tmpl := TripQueryTemplate(len(friends), f, h)
	return s.submit(user, "trip", friends, tmpl, TripQueryParams(user, friends, f, h))
}

// BookAdjacentSeat submits "fly in an adjacent seat to friend".
func (s *Service) BookAdjacentSeat(user, friend string, f FlightFilter) (*Booking, error) {
	tmpl := AdjacentSeatTemplate(f)
	return s.submit(user, "seat", []string{friend}, tmpl, AdjacentSeatParams(user, friend, f))
}

// BookDirect books a specific flight with no coordination constraints — the
// Figure 4 alternate path after browsing friends' bookings.
func (s *Service) BookDirect(user string, fno int64) (*Booking, error) {
	return s.submit(user, "direct", nil, DirectBookingTemplate, DirectBookingParams(user, fno))
}

// CancelBooking withdraws a still-pending booking.
func (s *Service) CancelBooking(b *Booking) bool {
	return s.sys.Cancel(b.ID)
}

func (s *Service) submit(user, kind string, friends []string, src string, params value.Tuple) (*Booking, error) {
	ps, err := s.sys.Prepare(src)
	if err != nil {
		return nil, err
	}
	h, err := ps.SubmitBound(params, user)
	if err != nil {
		return nil, err
	}
	b := &Booking{
		ID: h.ID, User: user, Kind: kind,
		Friends: append([]string(nil), friends...),
		SQL:     src, status: StatusPending,
		done: make(chan struct{}),
	}
	s.mu.Lock()
	s.bookings = append(s.bookings, b)
	s.mu.Unlock()
	go s.awaitOutcome(b, h)
	return b, nil
}

// awaitOutcome waits for the coordinated answer and turns it into account
// state plus a notification message.
func (s *Service) awaitOutcome(b *Booking, h *coord.Handle) {
	out := <-h.Done()
	b.mu.Lock()
	if out.Canceled {
		b.status = StatusCanceled
	} else {
		b.status = StatusConfirmed
		for _, ans := range out.Answers {
			if len(ans.Tuples) == 0 {
				continue
			}
			tup := ans.Tuples[0]
			switch strings.ToLower(ans.Relation) {
			case strings.ToLower(RelFlight):
				b.flight = tup[1].Int()
			case strings.ToLower(RelHotel):
				b.hotel = tup[1].Int()
			case strings.ToLower(RelSeat):
				b.flight = tup[1].Int()
				b.seat = tup[2].Int()
			}
		}
	}
	status, flight, hotel, seat := b.status, b.flight, b.hotel, b.seat
	b.mu.Unlock()
	// Close done only after the notification is posted, so a caller that
	// waited on the booking finds the message in the inbox.
	defer close(b.done)

	switch status {
	case StatusCanceled:
		s.notify(b.User, fmt.Sprintf("Your %s request was canceled.", b.Kind))
	case StatusConfirmed:
		text := fmt.Sprintf("Your %s request is confirmed: flight %d", b.Kind, flight)
		if hotel != 0 {
			text += fmt.Sprintf(", hotel %d", hotel)
		}
		if seat != 0 {
			text += fmt.Sprintf(", seat %d", seat)
		}
		if len(b.Friends) > 0 {
			text += " — together with " + strings.Join(b.Friends, ", ")
		}
		s.notify(b.User, text+".")
	}
}

// --- account view ------------------------------------------------------------

// AccountEntry is one row of the account view.
type AccountEntry struct {
	Booking *Booking
	Status  Status
}

// Account returns the user's bookings, pending first then by id — the demo's
// "account view where a user can see pending or confirmed reservations".
func (s *Service) Account(user string) []AccountEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []AccountEntry
	for _, b := range s.bookings {
		if b.User == user {
			out = append(out, AccountEntry{Booking: b, Status: b.Status()})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		pi, pj := out[i].Status == StatusPending, out[j].Status == StatusPending
		if pi != pj {
			return pi
		}
		return out[i].Booking.ID < out[j].Booking.ID
	})
	return out
}

// Reservations returns the user's confirmed flight reservations straight from
// the shared answer relation.
func (s *Service) Reservations(user string) []int64 {
	var out []int64
	for _, tup := range s.sys.Answers().Tuples(RelFlight) {
		if tup[0].Str() == user {
			out = append(out, tup[1].Int())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
