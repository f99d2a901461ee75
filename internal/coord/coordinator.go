package coord

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/answers"
	"repro/internal/engine"
	"repro/internal/eq"
	"repro/internal/value"
)

// Options tune the coordination component. The zero value is usable; New
// fills in defaults. The knobs double as the ablation switches of the
// benchmark suite (A1–A3, A5, A7).
type Options struct {
	// MaxMatchSize bounds how many queries one match may join (A2). Matching
	// is NP-hard in general; the bound keeps arrival latency predictable.
	MaxMatchSize int
	// MaxNodes bounds the coverage search per arrival.
	MaxNodes int
	// UseIndex enables the pending-head candidate index (A1); disabled, the
	// matcher scans every pending head.
	UseIndex bool
	// GroundSmallestFirst orders grounding domain sources by ascending
	// candidate count (A3); disabled, sources are used in discovery order.
	GroundSmallestFirst bool
	// FullRetryOnMatch re-attempts EVERY pending query after each successful
	// match (A5 ablation). The default (false) retries only pending queries
	// with a constraint atom that could unify with one of the answer tuples
	// the match just installed — on loaded systems this skips the unrelated
	// noise queries entirely.
	FullRetryOnMatch bool
	// Shards is the number of relation-partitioned coordination lanes (A7
	// ablation at 1). Each arriving query is routed to the shards owning the
	// relations of its footprint; queries on disjoint footprints coordinate
	// fully in parallel, and footprint-spanning queries escalate to a
	// deterministic multi-shard lock acquisition (see shard.go). Zero means
	// 1 — the paper's single serialized coordination round.
	Shards int
	// Seed drives the nondeterministic CHOOSE; a fixed seed makes runs
	// reproducible (per shard, each shard derives its own stream).
	Seed int64
	// PendingTTL, when positive, bounds how long a query may wait for
	// coordination: queries pending longer are withdrawn (Canceled outcome)
	// during the expiry pass run at the start of every coordination round on
	// the shards the round locks, and by ExpirePending. The paper parks
	// unmatched queries indefinitely; a production deployment needs the
	// lease. Zero disables expiry.
	PendingTTL time.Duration
	// ValidateMatches re-verifies, after every successful match, that each
	// delivered answer's constraints are satisfied by the answer relations —
	// a self-check of the matcher's central invariant (Figure 1b). It panics
	// on violation; enable it in tests and debugging, not in benchmarks.
	ValidateMatches bool
}

func (o Options) withDefaults() Options {
	if o.MaxMatchSize == 0 {
		o.MaxMatchSize = 16
	}
	if o.MaxNodes == 0 {
		o.MaxNodes = 200_000
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
	return o
}

// DefaultOptions returns the defaults used by New when no options are given:
// index on, smallest-first grounding, match bound 16, one shard.
func DefaultOptions() Options {
	return Options{UseIndex: true, GroundSmallestFirst: true}.withDefaults()
}

// Stats counts coordination activity; all fields are cumulative. Each shard
// keeps its own instance; Coordinator.Stats merges them.
type Stats struct {
	Submitted         atomic.Uint64
	Answered          atomic.Uint64 // queries answered (across all matches)
	Matches           atomic.Uint64 // successful joint executions
	Parked            atomic.Uint64 // arrivals that found no match and waited
	Canceled          atomic.Uint64
	Expired           atomic.Uint64 // pending queries withdrawn by TTL
	Retries           atomic.Uint64 // pending queries re-attempted
	Escalations       atomic.Uint64 // rounds widened to a cross-shard lane
	NodesExplored     atomic.Uint64
	GroundingAttempts atomic.Uint64
	GroundingFailures atomic.Uint64
}

func (s *Stats) snapshot() StatsSnapshot {
	return StatsSnapshot{
		Submitted:         s.Submitted.Load(),
		Answered:          s.Answered.Load(),
		Matches:           s.Matches.Load(),
		Parked:            s.Parked.Load(),
		Canceled:          s.Canceled.Load(),
		Expired:           s.Expired.Load(),
		Retries:           s.Retries.Load(),
		Escalations:       s.Escalations.Load(),
		NodesExplored:     s.NodesExplored.Load(),
		GroundingAttempts: s.GroundingAttempts.Load(),
		GroundingFailures: s.GroundingFailures.Load(),
	}
}

// StatsSnapshot is a plain-value copy of Stats.
type StatsSnapshot struct {
	Submitted, Answered, Matches, Parked, Canceled uint64
	Expired, Retries, Escalations, NodesExplored   uint64
	GroundingAttempts, GroundingFailures           uint64
}

func (s *StatsSnapshot) add(o StatsSnapshot) {
	s.Submitted += o.Submitted
	s.Answered += o.Answered
	s.Matches += o.Matches
	s.Parked += o.Parked
	s.Canceled += o.Canceled
	s.Expired += o.Expired
	s.Retries += o.Retries
	s.Escalations += o.Escalations
	s.NodesExplored += o.NodesExplored
	s.GroundingAttempts += o.GroundingAttempts
	s.GroundingFailures += o.GroundingFailures
}

// Coordinator is the coordination component. The paper's design runs the
// coordination logic "whenever an entangled query arrives in the system";
// here that logic is partitioned into Options.Shards relation-sharded lanes,
// each serializing only the rounds that touch its relations. With one shard
// this degenerates to the paper's single serialized round.
type Coordinator struct {
	eng   *engine.Engine
	store *answers.Store
	opts  Options

	shards []*coordShard
	// byID is the global pending-query directory: id → *pending. Its
	// LoadAndDelete in unregister is the single claim gate deciding which
	// round (match, expiry, cancel) delivers a query's outcome.
	byID sync.Map

	nextID atomic.Uint64

	// lanePool recycles lane lock-sets; every coordination round takes one.
	lanePool sync.Pool

	// searchHook, when non-nil, replaces the trailed matcher for the round's
	// coverage search. The differential test installs the reference
	// clone-based implementation here to prove outcome/stats equivalence.
	searchHook func(ln *lane, trigger *pending) (*installResult, bool, bool)
}

// New builds a Coordinator over an execution engine and an answer store.
func New(eng *engine.Engine, store *answers.Store, opts Options) *Coordinator {
	o := opts.withDefaults()
	c := &Coordinator{
		eng:    eng,
		store:  store,
		opts:   o,
		shards: make([]*coordShard, o.Shards),
	}
	for i := range c.shards {
		c.shards[i] = &coordShard{
			id:  i,
			reg: newRegistry(),
			// Each shard derives its own deterministic stream; shard 0 uses
			// the seed itself, so shards=1 reproduces the unsharded runs.
			rng: rand.New(rand.NewSource(o.Seed + int64(i)*0x9E3779B9)),
		}
	}
	return c
}

// Store exposes the coordinator's answer store.
func (c *Coordinator) Store() *answers.Store { return c.store }

// Engine exposes the coordinator's execution engine.
func (c *Coordinator) Engine() *engine.Engine { return c.eng }

// NumShards returns the number of coordination lanes.
func (c *Coordinator) NumShards() int { return len(c.shards) }

// Submit registers a compiled entangled query under an optional owner label
// and immediately runs a coordination round on the lane(s) its relation
// footprint maps to. If the query can be matched now (possibly recruiting
// other pending queries), everyone involved is answered atomically and
// their handles fire; otherwise the query parks in the pending tables and
// the returned handle fires on a later round.
func (c *Coordinator) Submit(q *eq.Query, owner string) (*Handle, error) {
	if q == nil || len(q.Heads) == 0 {
		return nil, fmt.Errorf("coord: empty query")
	}
	// Validate answer-relation names and arities up front so the submitter
	// gets the error, not a forever-pending query. The canonical footprint
	// doubles as the pending query's relation set below.
	rels := relationsOf(q)
	for _, rel := range rels {
		if !c.store.Is(rel) && c.eng.Catalog().Has(rel) {
			return nil, fmt.Errorf("%w: %q", answers.ErrNameTaken, rel)
		}
		if ar := c.store.Arity(rel); ar >= 0 {
			for _, h := range q.Heads {
				if h.Relation == rel && h.Arity() != ar {
					return nil, fmt.Errorf("%w: relation %s has arity %d, head %s",
						answers.ErrArityMismatch, rel, ar, h)
				}
			}
			checkAtoms := func(atoms []eq.Atom) error {
				for _, a := range atoms {
					if a.Relation == rel && a.Arity() != ar {
						return fmt.Errorf("%w: relation %s has arity %d, constraint %s",
							answers.ErrArityMismatch, rel, ar, a)
					}
				}
				return nil
			}
			if err := checkAtoms(q.Constraints); err != nil {
				return nil, err
			}
			if err := checkAtoms(q.NegConstraints); err != nil {
				return nil, err
			}
		}
	}

	p := &pending{
		id:        c.nextID.Add(1),
		q:         q,
		owner:     owner,
		submitted: time.Now(),
		rels:      rels,
	}
	p.shards = c.shardSet(p.rels)
	p.home = p.shards[0]
	p.handle = &Handle{ID: p.id, ch: make(chan Outcome, 1)}
	c.shards[p.home].stats.Submitted.Add(1)

	_, deferred := c.coordinate(p, true)
	c.runDeferred(deferred)
	return p.handle, nil
}

// SubmitSQL compiles and submits entangled SQL.
func (c *Coordinator) SubmitSQL(src, owner string) (*Handle, error) {
	q, err := eq.CompileSQL(src)
	if err != nil {
		return nil, err
	}
	return c.Submit(q, owner)
}

// coordinate runs one coordination round for p: lock the lane of p's
// footprint, run the coverage search, and on success finalize the match and
// cascade targeted retries within the lane. When the search fails only
// because candidates were foreign to the lane (their footprints span
// unlocked shards), the round escalates: it widens the lane to the shard
// closure of p's footprint — deterministically, in shard-id order — and
// retries. Arrival rounds (arrival=true) register p first and count Parked
// on failure; retry rounds re-check that p is still pending after every
// lock acquisition and count Retries.
//
// It returns whether a match was finalized, plus the ids of affected
// pending queries that could not be retried inside this lane (their
// footprints span shards the lane does not hold) — the caller runs those
// through runDeferred after the lane is released.
func (c *Coordinator) coordinate(p *pending, arrival bool) (matched bool, deferred []uint64) {
	home := &c.shards[p.home].stats
	want := p.shards
	for attempt := 0; ; attempt++ {
		ln := c.lockLane(want)
		if arrival && attempt == 0 {
			c.expireIn(ln, time.Now())
			// Register first: the query's own head is a legitimate cover for
			// its own or recruited queries' constraints, and search excludes
			// members from recruitment by id.
			c.register(p)
		} else if !c.isPending(p.id) {
			// Another lane answered, expired or canceled p while this round
			// was waiting for locks.
			ln.unlock()
			return false, nil
		}
		if !arrival {
			home.Retries.Add(1)
		}
		res, ok, sawForeign := c.search(ln, p)
		if ok {
			installed := c.finalize(res)
			// A successful match may unblock previously parked queries whose
			// constraints refer to the just-installed answers.
			if c.opts.FullRetryOnMatch {
				installed = nil
			}
			deferred = c.retryIn(ln, installed)
			ln.unlock()
			return true, deferred
		}
		if sawForeign && attempt < len(c.shards) {
			wider := c.closure(want)
			if len(wider) > len(want) {
				ln.unlock()
				home.Escalations.Add(1)
				want = wider
				continue
			}
		}
		if arrival {
			home.Parked.Add(1)
		}
		ln.unlock()
		return false, nil
	}
}

// runDeferred drives escalated coordination rounds for queries a lane could
// not retry in place. Each deferred query gets its own round (with its own
// lane and escalation); matches there may defer further queries, which join
// the queue. The queue drains because every matching round removes at least
// one pending query and non-matching rounds add nothing.
func (c *Coordinator) runDeferred(ids []uint64) {
	for qi := 0; qi < len(ids); qi++ {
		v, ok := c.byID.Load(ids[qi])
		if !ok {
			continue // already answered or withdrawn
		}
		_, more := c.coordinate(v.(*pending), false)
		ids = append(ids, more...)
	}
}

// finalize removes matched queries from the pending tables and delivers
// outcomes, returning the tuples the match installed (relation → tuples).
// Caller holds the lane covering every member.
func (c *Coordinator) finalize(res *installResult) map[string][]value.Tuple {
	if c.opts.ValidateMatches {
		c.validateMatch(res)
	}
	c.shards[res.members[0].home].stats.Matches.Add(1)
	var installed map[string][]value.Tuple
	for _, m := range res.members {
		if c.unregister(m.id) == nil {
			continue // defensive: lane coverage should make this impossible
		}
		c.shards[m.home].stats.Answered.Add(1)
		answers := res.perQuery[m.id]
		for _, a := range answers {
			rel := strings.ToLower(a.Relation)
			if installed == nil {
				installed = make(map[string][]value.Tuple, 2)
			}
			installed[rel] = append(installed[rel], a.Tuples...)
		}
		m.handle.deliver(Outcome{
			QueryID:   m.id,
			Answers:   answers,
			MatchSize: len(res.members),
		})
	}
	if installed == nil {
		// Defensive: a nil map means FullRetryOnMatch to retryIn; an
		// (impossible) match that installed nothing must not widen into a
		// full retry pass.
		installed = make(map[string][]value.Tuple)
	}
	return installed
}

// validateMatch asserts the matcher's central invariant on a finished match:
// for every member and every grounding, each positive constraint atom —
// with the member's own delivered bindings substituted in — has a witness in
// the (just-updated) answer relations, and no negative constraint does.
func (c *Coordinator) validateMatch(res *installResult) {
	for _, m := range res.members {
		answers := res.perQuery[m.id]
		for g := 0; g < res.groundings; g++ {
			// Recover this grounding's variable bindings from the member's
			// own delivered head tuples.
			binding := make(map[string]value.Value)
			for hi, h := range m.q.Heads {
				if g >= len(answers[hi].Tuples) {
					continue
				}
				tup := answers[hi].Tuples[g]
				for i, term := range h.Terms {
					if term.IsVar {
						binding[term.Var] = tup[i]
					}
				}
			}
			substitute := func(a eq.Atom) eq.Atom {
				out := eq.Atom{Relation: a.Relation, Display: a.Display, Terms: make([]eq.Term, len(a.Terms))}
				for i, term := range a.Terms {
					if term.IsVar {
						if v, ok := binding[term.Var]; ok {
							out.Terms[i] = eq.ConstTerm(v)
							continue
						}
					}
					out.Terms[i] = term
				}
				return out
			}
			for _, cons := range m.q.Constraints {
				if len(c.store.Matching(substitute(cons))) == 0 {
					panic(fmt.Sprintf("coord: INVARIANT VIOLATION: q%d delivered but constraint %s unsatisfied (grounding %d)",
						m.id, substitute(cons), g))
				}
			}
			for _, neg := range m.q.NegConstraints {
				if len(c.store.Matching(substitute(neg))) > 0 {
					panic(fmt.Sprintf("coord: INVARIANT VIOLATION: q%d delivered but exclusion %s violated (grounding %d)",
						m.id, substitute(neg), g))
				}
			}
		}
	}
}

// affectedBy reports whether any constraint atom of q could unify with one of
// the freshly installed tuples — the trigger condition for a targeted retry.
func affectedBy(q *eq.Query, installed map[string][]value.Tuple) bool {
	for _, cons := range q.Constraints {
		for _, tup := range installed[cons.Relation] {
			if len(tup) != cons.Arity() {
				continue
			}
			ok := true
			for i, t := range cons.Terms {
				if !t.IsVar && !t.Const.Identical(tup[i]) {
					ok = false
					break
				}
			}
			if ok {
				return true
			}
		}
	}
	return false
}

// Retry re-attempts coordination for every pending query. Call it after base
// table updates that might unblock waiting queries ("a query whose
// postcondition is not satisfied … waits for an opportunity to retry").
// It loops until a full pass makes no progress. Each pending query gets its
// own coordination round on its own lane, so a Retry never stops the world.
func (c *Coordinator) Retry() {
	for {
		progressed := false
		for _, p := range c.allPending() {
			if !c.isPending(p.id) {
				continue // answered earlier in this pass
			}
			matched, deferred := c.coordinate(p, false)
			if matched {
				progressed = true
			}
			c.runDeferred(deferred)
		}
		if !progressed {
			return
		}
	}
}

// retryIn re-attempts pending queries inside a held lane, after a match.
// When installed is non-nil, only queries with a constraint that could unify
// with a freshly installed tuple are tried (targeted retry); tuples
// installed by those retries extend the trigger set, so chains of unblocking
// still cascade. Affected queries whose footprints the lane does not cover
// cannot be searched under these locks; their ids are returned for the
// caller to coordinate on their own lanes after this one is released — the
// cross-shard half of the cascade.
func (c *Coordinator) retryIn(ln *lane, installed map[string][]value.Tuple) (deferred []uint64) {
	deferredSeen := make(map[uint64]bool)
	for {
		progressed := false
		for _, p := range c.allPending() {
			if !c.isPending(p.id) {
				continue // answered earlier in this pass
			}
			if installed != nil && !affectedBy(p.q, installed) {
				continue
			}
			if !ln.covers(p) {
				if !deferredSeen[p.id] {
					deferredSeen[p.id] = true
					deferred = append(deferred, p.id)
				}
				continue
			}
			c.shards[p.home].stats.Retries.Add(1)
			res, ok, sawForeign := c.search(ln, p)
			if ok {
				more := c.finalize(res)
				progressed = true
				if installed != nil {
					for rel, tuples := range more {
						installed[rel] = append(installed[rel], tuples...)
					}
				}
			} else if sawForeign && !deferredSeen[p.id] {
				// The lane-local search skipped cross-shard candidates; give
				// the query an escalated round of its own later.
				deferredSeen[p.id] = true
				deferred = append(deferred, p.id)
			}
		}
		if !progressed {
			return deferred
		}
	}
}

// ExpirePending withdraws every query that has been pending longer than
// Options.PendingTTL, returning how many were expired. It locks every lane
// (in shard-id order); per-shard expiry also runs automatically at the start
// of each arrival round, on the shards that round locks.
func (c *Coordinator) ExpirePending() int {
	if c.opts.PendingTTL <= 0 {
		return 0
	}
	ln := c.lockLane(c.allShardIDs())
	defer ln.unlock()
	return c.expireIn(ln, time.Now())
}

// expireIn cancels over-age pending queries homed on the lane's shards.
// Caller holds the lane. A query is only ever expired by a lane holding its
// home shard, which excludes concurrent matches recruiting it.
func (c *Coordinator) expireIn(ln *lane, now time.Time) int {
	if c.opts.PendingTTL <= 0 {
		return 0
	}
	expired := 0
	for _, id := range ln.shardIDs() {
		sh := c.shards[id]
		for _, p := range sh.reg.homed() {
			if now.Sub(p.submitted) < c.opts.PendingTTL {
				continue
			}
			if c.unregister(p.id) == nil {
				continue
			}
			sh.stats.Expired.Add(1)
			expired++
			p.handle.deliver(Outcome{QueryID: p.id, Canceled: true})
		}
	}
	return expired
}

// Cancel withdraws a pending query. It returns false when the query is not
// pending (already answered, canceled, or unknown). Only the query's home
// shard is locked; lanes that could recruit the query must hold that same
// lock, so a delivered query can never be canceled.
func (c *Coordinator) Cancel(id uint64) bool {
	v, ok := c.byID.Load(id)
	if !ok {
		return false
	}
	p := v.(*pending)
	sh := c.shards[p.home]
	sh.round.Lock()
	defer sh.round.Unlock()
	if c.unregister(id) == nil {
		return false
	}
	sh.stats.Canceled.Add(1)
	p.handle.deliver(Outcome{QueryID: id, Canceled: true})
	return true
}

// PendingCount returns the number of queries currently parked. It sums the
// per-shard home counts (every pending query is homed on exactly one shard),
// staying O(shards) on the per-DML auto-retry check.
func (c *Coordinator) PendingCount() int {
	n := 0
	for _, sh := range c.shards {
		n += sh.reg.size()
	}
	return n
}

// Stats returns a snapshot of the coordination counters, merged across
// shards.
func (c *Coordinator) Stats() StatsSnapshot {
	var out StatsSnapshot
	for _, sh := range c.shards {
		snap := sh.stats.snapshot()
		out.add(snap)
	}
	return out
}

// ShardInfo describes one coordination lane for the admin interface.
type ShardInfo struct {
	ID int
	// Pending counts the queries homed on this shard.
	Pending int
	// Relations lists the answer relations currently present in the shard's
	// candidate index (i.e. with at least one pending head atom).
	Relations []string
	// Stats is the shard's own counter snapshot.
	Stats StatsSnapshot
}

// Shards returns per-lane diagnostics: pending counts, indexed relations and
// per-shard counters.
func (c *Coordinator) Shards() []ShardInfo {
	out := make([]ShardInfo, len(c.shards))
	for i, sh := range c.shards {
		out[i] = ShardInfo{
			ID:        i,
			Pending:   sh.reg.size(),
			Relations: sh.reg.relations(),
			Stats:     sh.stats.snapshot(),
		}
	}
	return out
}
