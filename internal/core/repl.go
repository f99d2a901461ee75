package core

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/sql"
	"repro/internal/wal"
)

// Replication roles. A System is a primary (accepts writes, logs them) or a
// follower (replays a primary's shipped log, serves snapshot reads). The role
// can change once, at promotion.

// NotPrimaryError rejects a write or entangled submission on a follower,
// carrying the primary's address so clients can redirect.
type NotPrimaryError struct {
	Primary string // primary's client address, if the follower knows it
}

func (e *NotPrimaryError) Error() string {
	if e.Primary == "" {
		return "core: not primary (read-only follower)"
	}
	return fmt.Sprintf("core: not primary (read-only follower); retry against %s", e.Primary)
}

// ErrNotReady rejects reads on a follower that is mid-reset: its old state
// was discarded and the replacement snapshot has not landed yet. Retryable —
// the follower becomes ready as soon as the snapshot commit applies.
var ErrNotReady = errors.New("core: follower resynchronizing; snapshot not yet applied, retry")

// ReplFollowerStatus is one connected (or recently connected) follower as the
// primary sees it: how far the stream has shipped, how far the follower has
// acknowledged, and the resulting lag.
type ReplFollowerStatus struct {
	Addr       string // follower's remote address
	ShipSeq    uint64 // segment/offset the shipper has sent through
	ShipOff    int64
	AckSeq     uint64 // segment/offset the follower has applied (durable up to its last seal)
	AckOff     int64
	AckRecords uint64 // records acknowledged in this connection
	LagRecords uint64 // records shipped but not yet acknowledged
	LagMillis  int64  // age of the newest acknowledged chunk's ship time
	Connected  bool
}

// ReplStatus is the replication health surface (admin `repl`/`health`).
type ReplStatus struct {
	Role      string // "primary" or "follower"
	Ready     bool   // followers: consistent state is being served
	Epoch     uint64 // fencing epoch this node believes in
	Primary   string // followers: upstream address being pulled from
	Seq       uint64 // local log end position
	Off       int64
	LastTS    uint64 // followers: replayed commit-timestamp watermark
	Applied   uint64 // followers: records applied since open
	Open      int    // followers: transactions seen but not yet committed
	Link      bool   // followers: upstream connection is up
	Followers []ReplFollowerStatus
}

// String renders the status as the admin surface shows it.
func (r ReplStatus) String() string {
	var b []byte
	b = fmt.Appendf(b, "role=%s epoch=%d position=%d/%d", r.Role, r.Epoch, r.Seq, r.Off)
	if r.Role == "follower" {
		b = fmt.Appendf(b, " ready=%v link=%v primary=%s applied=%d open=%d watermark=%d",
			r.Ready, r.Link, r.Primary, r.Applied, r.Open, r.LastTS)
	}
	for _, f := range r.Followers {
		b = fmt.Appendf(b, "\n  follower %-21s shipped=%d/%d acked=%d/%d lag=%d records %d ms connected=%v",
			f.Addr, f.ShipSeq, f.ShipOff, f.AckSeq, f.AckOff, f.LagRecords, f.LagMillis, f.Connected)
	}
	return string(append(b, '\n'))
}

// repl is the System's replication state. Zero value = standalone primary.
type repl struct {
	mu       sync.Mutex
	follower bool   // true until promotion
	ready    bool   // follower serves consistent reads (false mid-reset)
	primary  string // upstream client address for NotPrimaryError redirects
	applier  *wal.Applier
	status   func() ReplStatus // installed by the repl.Node running this system
	promote  func() error      // installed by the repl.Node; full promotion path
}

// IsFollower reports whether the system currently rejects writes.
func (s *System) IsFollower() bool {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return s.repl.follower
}

// Ready reports whether reads are being served from consistent state. Always
// true on a primary.
func (s *System) Ready() bool {
	s.repl.mu.Lock()
	defer s.repl.mu.Unlock()
	return !s.repl.follower || s.repl.ready
}

// SetReady flips the follower read gate (replication layer: false at the
// start of a resync, true once the replacement snapshot has applied).
func (s *System) SetReady(ready bool) {
	s.repl.mu.Lock()
	s.repl.ready = ready
	s.repl.mu.Unlock()
}

// SetPrimaryAddr records the primary's client address for redirect errors.
func (s *System) SetPrimaryAddr(addr string) {
	s.repl.mu.Lock()
	s.repl.primary = addr
	s.repl.mu.Unlock()
}

// ReplApplier exposes the follower's record applier (nil on a primary).
func (s *System) ReplApplier() *wal.Applier { return s.repl.applier }

// SetReplStatus installs the replication layer's status provider.
func (s *System) SetReplStatus(fn func() ReplStatus) {
	s.repl.mu.Lock()
	s.repl.status = fn
	s.repl.mu.Unlock()
}

// SetPromote installs the replication layer's promotion hook (stops the
// puller and bumps the fencing epoch before calling BecomePrimary).
func (s *System) SetPromote(fn func() error) {
	s.repl.mu.Lock()
	s.repl.promote = fn
	s.repl.mu.Unlock()
}

// Promote runs the installed promotion hook (admin surface). On a system with
// no replication layer it reports the role as-is.
func (s *System) Promote() error {
	s.repl.mu.Lock()
	fn := s.repl.promote
	follower := s.repl.follower
	s.repl.mu.Unlock()
	if fn != nil {
		return fn()
	}
	if !follower {
		return errors.New("core: already primary")
	}
	return errors.New("core: no replication layer attached; cannot promote")
}

// ReplStatus reports replication health. Without a replication layer it
// still reports the local role and log position.
func (s *System) ReplStatus() ReplStatus {
	s.repl.mu.Lock()
	fn := s.repl.status
	follower, ready := s.repl.follower, s.repl.ready
	s.repl.mu.Unlock()
	if fn != nil {
		return fn()
	}
	st := ReplStatus{Role: "primary", Ready: true}
	if follower {
		st.Role, st.Ready = "follower", ready
	}
	if s.wal != nil {
		pos := s.wal.End()
		st.Seq, st.Off = pos.Seq, pos.Off
	}
	if a := s.repl.applier; a != nil {
		st.LastTS, st.Applied, st.Open = a.LastTS(), a.Applied(), a.OpenTxns()
	}
	return st
}

// gate rejects statements a follower cannot run: everything but a plain
// SELECT redirects to the primary, and reads are refused (retryably) while a
// resync has discarded the local state.
func (s *System) gate(stmt sql.Statement) error {
	s.repl.mu.Lock()
	follower, ready, primary := s.repl.follower, s.repl.ready, s.repl.primary
	s.repl.mu.Unlock()
	if !follower {
		return nil
	}
	switch stmt.(type) {
	case *sql.Select, *sql.Explain:
		// Read-only: EXPLAIN describes a plan without executing, so a
		// follower may serve it even for write statements.
	default:
		return &NotPrimaryError{Primary: primary}
	}
	if !ready {
		return ErrNotReady
	}
	return nil
}

// BecomePrimary flips a follower into write-accepting mode. The replication
// layer calls it after stopping the puller and bumping the fencing epoch:
// it reopens the log for appending and takes it over (takeOverLog), rolling
// back every transaction whose commit record the old primary never shipped,
// so the compensations and commits land in the promoted log and
// demultiplex correctly on this node's own future followers. The MVCC
// clock was dragged past the primary's at every replayed commit, so new
// commits draw timestamps strictly above the replayed watermark.
func (s *System) BecomePrimary() error {
	s.repl.mu.Lock()
	if !s.repl.follower {
		s.repl.mu.Unlock()
		return errors.New("core: already primary")
	}
	if !s.repl.ready {
		s.repl.mu.Unlock()
		return fmt.Errorf("core: cannot promote: %w", ErrNotReady)
	}
	s.repl.mu.Unlock()
	if s.wal == nil || s.repl.applier == nil {
		return errors.New("core: not a follower system")
	}
	if err := s.wal.EnsureActive(); err != nil {
		return fmt.Errorf("core: promote: %w", err)
	}
	if err := s.takeOverLog(); err != nil {
		return fmt.Errorf("core: promote: %w", err)
	}
	s.repl.mu.Lock()
	s.repl.follower = false
	s.repl.mu.Unlock()
	return nil
}

// commitWALAlways forces the rollbacks of a log takeover to disk regardless
// of the configured sync mode — they must not be lost to a crash.
func (s *System) commitWALAlways() error {
	if s.wal == nil {
		return nil
	}
	return s.wal.Commit()
}
