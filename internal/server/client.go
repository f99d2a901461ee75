package server

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/plan"
	"repro/internal/storage"
	"repro/internal/txn"
	"repro/internal/value"
)

// Client is a middle-tier connection to a Youtopia server, speaking wire
// protocol v2 (binary frames; see protocol.go). The connection is fully
// multiplexed: any number of requests may be in flight concurrently, each
// correlated by id, and asynchronous coordination events are routed to the
// channel returned by Submit. All methods are safe for concurrent use.
//
// Methods without a context parameter are conveniences over the *Context
// variants with context.Background(). A context deadline on Submit is also
// sent to the server, which withdraws the entangled query when the deadline
// passes before coordination — the wire form of the coordinator's TTL.
type Client struct {
	conn net.Conn

	wmu  sync.Mutex // serializes frame writes
	wbuf frameBuf

	mu      sync.Mutex
	nextID  uint64
	calls   map[uint64]*clientCall // request id → in-flight call
	watches map[uint64]chan Event  // entangled query id → event channel
	// early holds events that arrived before their watch was registered
	// (the server's answer push can overtake the registration reply).
	early map[uint64]Event
	// orphans are query ids whose SubmitContext was abandoned by context
	// cancellation: their one eventual event (canceled or answered) is
	// dropped instead of parking in early forever.
	orphans     map[uint64]struct{}
	maxInFlight int // high-water mark of concurrently in-flight requests
	closed      bool
	readErr     error
	done        chan struct{}
}

// clientCall accumulates the reply to one request. Result sets arrive as a
// header frame plus row batches; everything else completes in one frame.
type clientCall struct {
	ch  chan clientReply
	res *QueryResult // streaming result under assembly
}

type clientReply struct {
	rp  reply
	res *QueryResult
	err error
}

// Event is an asynchronous coordination outcome pushed by the server.
type Event struct {
	Query     uint64
	Canceled  bool
	MatchSize int
	Answers   []ClientAnswer
}

// ClientAnswer is one answer relation's tuples, decoded to values.
type ClientAnswer struct {
	Relation string
	Tuples   []value.Tuple
}

// QueryResult holds a plain statement's outcome on the client side.
type QueryResult struct {
	Cols     []string
	Rows     []value.Tuple
	Affected int
}

// Dial connects to a Youtopia server with the v2 framed protocol.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if _, err := conn.Write(v2Magic[:]); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{
		conn:    conn,
		calls:   make(map[uint64]*clientCall),
		watches: make(map[uint64]chan Event),
		early:   make(map[uint64]Event),
		orphans: make(map[uint64]struct{}),
		done:    make(chan struct{}),
	}
	go c.readLoop()
	return c, nil
}

// Close tears down the connection; the server withdraws this client's
// pending entangled queries.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	c.mu.Unlock()
	err := c.conn.Close()
	<-c.done
	return err
}

// MaxInFlight reports the high-water mark of concurrently outstanding
// requests on this connection — the observable face of multiplexing.
func (c *Client) MaxInFlight() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.maxInFlight
}

func (c *Client) readLoop() {
	defer close(c.done)
	br := bufio.NewReader(c.conn)
	var rbuf []byte
	for {
		payload, err := readFrame(br, rbuf)
		rbuf = payload
		if err != nil {
			break
		}
		rp, err := decodeReply(payload)
		if err != nil {
			break // protocol error: fail the connection
		}
		switch rp.kind {
		case kindEvent:
			c.routeEvent(rp.event)
		case kindResult:
			c.mu.Lock()
			if call := c.calls[rp.id]; call != nil {
				call.res = &QueryResult{Cols: rp.cols, Affected: rp.affected}
			}
			c.mu.Unlock()
		case kindRows:
			c.mu.Lock()
			if call := c.calls[rp.id]; call != nil && call.res != nil {
				call.res.Rows = append(call.res.Rows, rp.rows...)
			}
			c.mu.Unlock()
		case kindResultEnd:
			c.complete(rp.id, func(call *clientCall) clientReply {
				return clientReply{rp: rp, res: call.res}
			})
		case kindError:
			c.complete(rp.id, func(*clientCall) clientReply {
				return clientReply{rp: rp, err: wireError(rp.errCode, rp.text)}
			})
		default: // kindOK, kindEntangled, kindAdminResp
			c.complete(rp.id, func(*clientCall) clientReply {
				return clientReply{rp: rp}
			})
		}
	}
	// Connection gone (EOF, or a reply we could not decode): close the
	// socket too — a protocol error must tear the connection down on both
	// sides, not leave the fd and the server's session state alive.
	c.conn.Close()
	c.mu.Lock()
	c.readErr = ErrClosed
	for id, call := range c.calls {
		delete(c.calls, id)
		call.ch <- clientReply{err: ErrClosed}
	}
	for id, ch := range c.watches {
		delete(c.watches, id)
		ch <- Event{Query: id, Canceled: true}
	}
	c.mu.Unlock()
}

func (c *Client) complete(id uint64, mk func(*clientCall) clientReply) {
	c.mu.Lock()
	call := c.calls[id]
	delete(c.calls, id)
	c.mu.Unlock()
	if call != nil {
		call.ch <- mk(call)
	}
}

func (c *Client) routeEvent(out coord.Outcome) {
	ev := Event{Query: out.QueryID, Canceled: out.Canceled, MatchSize: out.MatchSize}
	for _, a := range out.Answers {
		ev.Answers = append(ev.Answers, ClientAnswer{Relation: a.Relation, Tuples: a.Tuples})
	}
	c.mu.Lock()
	if _, orphaned := c.orphans[ev.Query]; orphaned {
		delete(c.orphans, ev.Query) // abandoned submit: exactly one event comes
		c.mu.Unlock()
		return
	}
	ch := c.watches[ev.Query]
	if ch == nil {
		c.early[ev.Query] = ev // watch not registered yet
	} else {
		delete(c.watches, ev.Query)
	}
	c.mu.Unlock()
	if ch != nil {
		ch <- ev
	}
}

// send registers a call slot and writes one frame built by enc. Multiple
// goroutines may send concurrently; each gets its own correlation id.
func (c *Client) send(enc func(f *frameBuf, id uint64) error) (*clientCall, uint64, error) {
	call := &clientCall{ch: make(chan clientReply, 1)}
	c.mu.Lock()
	if c.closed || c.readErr != nil {
		c.mu.Unlock()
		return nil, 0, ErrClosed
	}
	c.nextID++
	id := c.nextID
	c.calls[id] = call
	if n := len(c.calls); n > c.maxInFlight {
		c.maxInFlight = n
	}
	c.mu.Unlock()

	c.wmu.Lock()
	c.wbuf.reset()
	encErr := enc(&c.wbuf, id)
	var writeErr error
	if encErr == nil {
		_, writeErr = c.conn.Write(c.wbuf.b)
	}
	c.wmu.Unlock()
	if encErr != nil {
		// Nothing hit the wire (end() truncates the frame it rejects), so
		// the stream is still framed: fail just this call.
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return nil, 0, encErr
	}
	if writeErr != nil {
		// A partial frame write leaves the stream unframeable: a later
		// frame would start mid-payload and mis-correlate on the server.
		// Poison the connection — the read loop tears down every waiter.
		c.mu.Lock()
		delete(c.calls, id)
		if c.readErr == nil {
			c.readErr = writeErr
		}
		c.mu.Unlock()
		c.conn.Close()
		return nil, 0, writeErr
	}
	return call, id, nil
}

// await waits for a call's reply or the context's cancellation. An
// abandoned reply is dropped when it arrives (the slot is unregistered).
func (c *Client) await(ctx context.Context, call *clientCall, id uint64) (clientReply, error) {
	select {
	case r := <-call.ch:
		return r, r.err
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.calls, id)
		c.mu.Unlock()
		return clientReply{}, ctx.Err()
	}
}

func (c *Client) roundTrip(ctx context.Context, enc func(f *frameBuf, id uint64) error) (clientReply, error) {
	if err := ctx.Err(); err != nil {
		return clientReply{}, err
	}
	call, id, err := c.send(enc)
	if err != nil {
		return clientReply{}, err
	}
	return c.await(ctx, call, id)
}

// ttlFrom maps a context deadline onto the wire TTL (0 = none). Sub-
// millisecond remainders round up so a short-but-live deadline is not sent
// as "no TTL".
func ttlFrom(ctx context.Context) time.Duration {
	d, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ttl := time.Until(d)
	if ttl <= 0 {
		return time.Millisecond
	}
	return ttl.Round(time.Millisecond) + time.Millisecond
}

// QueryContext executes a plain SQL statement remotely.
func (c *Client) QueryContext(ctx context.Context, sql string) (*QueryResult, error) {
	r, err := c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendExec(id, sql, "", 0)
	})
	if err != nil {
		return nil, err
	}
	switch r.rp.kind {
	case kindResultEnd:
		return r.res, nil
	case kindOK:
		return &QueryResult{}, nil
	case kindEntangled:
		return nil, fmt.Errorf("server: Query cannot run entangled statements; use Submit")
	default:
		return nil, fmt.Errorf("server: unexpected reply kind 0x%02x", r.rp.kind)
	}
}

// Query is QueryContext with context.Background().
func (c *Client) Query(sql string) (*QueryResult, error) {
	return c.QueryContext(context.Background(), sql)
}

// ExplainContext asks the server for the typed plan description of one
// statement without executing it. A leading EXPLAIN keyword is optional.
// Optional args bind parameter slots so the estimates reflect the actual
// values (see value.NewTuple for the accepted kinds).
func (c *Client) ExplainContext(ctx context.Context, sql string, args ...any) (*plan.Desc, error) {
	params := value.NewTuple(args...)
	r, err := c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendExplain(id, sql, params)
	})
	if err != nil {
		return nil, err
	}
	if r.rp.kind != kindPlan || r.rp.plan == nil {
		return nil, fmt.Errorf("server: unexpected reply kind 0x%02x", r.rp.kind)
	}
	return r.rp.plan, nil
}

// Explain is ExplainContext with context.Background().
func (c *Client) Explain(sql string, args ...any) (*plan.Desc, error) {
	return c.ExplainContext(context.Background(), sql, args...)
}

// SubmitContext registers an entangled query remotely; the returned channel
// yields the coordination outcome when the server pushes it. A context
// deadline travels to the server as a TTL: if coordination has not happened
// by then, the query is withdrawn server-side and the event arrives with
// Canceled set.
func (c *Client) SubmitContext(ctx context.Context, sql, owner string) (uint64, <-chan Event, error) {
	ttl := ttlFrom(ctx)
	return c.submitRoundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendExec(id, sql, owner, ttl)
	})
}

// submitRoundTrip is the shared submit plumbing of the text and prepared
// paths: send the frame, await the entangled ack, register (or satisfy from
// the early set) the outcome watch.
func (c *Client) submitRoundTrip(ctx context.Context, enc func(f *frameBuf, id uint64) error) (uint64, <-chan Event, error) {
	if err := ctx.Err(); err != nil {
		return 0, nil, err
	}
	watch := make(chan Event, 1)
	call, id, err := c.send(enc)
	if err != nil {
		return 0, nil, err
	}
	r, err := c.awaitSubmit(ctx, call, id)
	if err != nil {
		return 0, nil, err
	}
	if r.rp.kind != kindEntangled {
		if r.rp.kind == kindResultEnd || r.rp.kind == kindOK {
			return 0, nil, fmt.Errorf("server: statement was not entangled; use Query")
		}
		return 0, nil, fmt.Errorf("server: unexpected reply kind 0x%02x", r.rp.kind)
	}
	q := r.rp.query
	c.mu.Lock()
	if ev, ok := c.early[q]; ok {
		delete(c.early, q)
		c.mu.Unlock()
		watch <- ev
		return q, watch, nil
	}
	c.watches[q] = watch
	c.mu.Unlock()
	return q, watch, nil
}

// awaitSubmit is await for the submit path: abandoning on ctx cancellation
// must not leak the registration. A reaper takes over the call slot, learns
// the query id from the (possibly still in-flight) entangled ack, withdraws
// the query server-side and suppresses its one eventual event — otherwise
// an abandoned submit would stay pending on the server (able to consume a
// real match nobody hears about) and park its outcome in c.early forever.
func (c *Client) awaitSubmit(ctx context.Context, call *clientCall, id uint64) (clientReply, error) {
	select {
	case r := <-call.ch:
		return r, r.err
	case <-ctx.Done():
		go func() {
			r := <-call.ch // the read loop always completes or fails the slot
			if r.err != nil || r.rp.kind != kindEntangled {
				return // nothing registered server-side
			}
			q := r.rp.query
			c.mu.Lock()
			if _, ok := c.early[q]; ok {
				delete(c.early, q) // the outcome already arrived; drop it
			} else {
				c.orphans[q] = struct{}{} // exactly one event will come
			}
			c.mu.Unlock()
			c.CancelContext(context.Background(), q) //nolint:errcheck // best effort; "not pending" means it resolved
		}()
		return clientReply{}, ctx.Err()
	}
}

// Submit is SubmitContext with context.Background().
func (c *Client) Submit(sql, owner string) (uint64, <-chan Event, error) {
	return c.SubmitContext(context.Background(), sql, owner)
}

// CancelContext withdraws a pending entangled query.
func (c *Client) CancelContext(ctx context.Context, query uint64) error {
	_, err := c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendCancel(id, query)
	})
	return err
}

// Cancel is CancelContext with context.Background().
func (c *Client) Cancel(query uint64) error {
	return c.CancelContext(context.Background(), query)
}

// admin performs one typed admin round trip.
func (c *Client) admin(ctx context.Context, code byte) (reply, error) {
	r, err := c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendAdmin(id, code)
	})
	if err != nil {
		return reply{}, err
	}
	if r.rp.kind != kindAdminResp || r.rp.admin != code {
		return reply{}, fmt.Errorf("server: unexpected admin reply kind 0x%02x", r.rp.kind)
	}
	return r.rp, nil
}

// AdminStats fetches the coordinator's merged counters, typed.
func (c *Client) AdminStats(ctx context.Context) (coord.StatsSnapshot, error) {
	rp, err := c.admin(ctx, adminStats)
	return rp.stats, err
}

// AdminShardInfo fetches per-lane coordination diagnostics, typed.
func (c *Client) AdminShardInfo(ctx context.Context) ([]coord.ShardInfo, error) {
	rp, err := c.admin(ctx, adminShards)
	return rp.shards, err
}

// AdminPendingList fetches the pending entangled queries, typed.
func (c *Client) AdminPendingList(ctx context.Context) ([]coord.PendingInfo, error) {
	rp, err := c.admin(ctx, adminPending)
	return rp.pending, err
}

// AdminWALStats fetches the durability-layer snapshot, typed. durable is
// false when the server runs without a WAL.
func (c *Client) AdminWALStats(ctx context.Context) (st core.WALStats, durable bool, err error) {
	rp, err := c.admin(ctx, adminWAL)
	return rp.walStats, rp.durable, err
}

// AdminTxnStats fetches the transaction manager's cumulative counters —
// commits, aborts, lock timeouts, MVCC write conflicts, and GC-reclaimed
// tuple versions — typed.
func (c *Client) AdminTxnStats(ctx context.Context) (txn.Stats, error) {
	rp, err := c.admin(ctx, adminTxn)
	return rp.txnStats, err
}

// AdminPoolStats fetches the buffer-pool snapshot, typed. enabled is false
// when the server runs fully in memory (no Config.BufferPoolPages).
func (c *Client) AdminPoolStats(ctx context.Context) (st storage.PoolStats, enabled bool, err error) {
	rp, err := c.admin(ctx, adminPool)
	return rp.pool, rp.poolOn, err
}

// AdminPool fetches the buffer-pool snapshot and renders it client-side.
func (c *Client) AdminPool() (string, error) {
	st, enabled, err := c.AdminPoolStats(context.Background())
	if err != nil {
		return "", err
	}
	return renderPool(st, enabled), nil
}

// AdminTxn fetches the transaction counters and renders them client-side.
func (c *Client) AdminTxn() (string, error) {
	st, err := c.AdminTxnStats(context.Background())
	if err != nil {
		return "", err
	}
	return renderTxn(st), nil
}

// AdminState fetches the server's coordination-state dump (a rendered
// report; the structured pieces are available via the typed getters).
func (c *Client) AdminState() (string, error) {
	rp, err := c.admin(context.Background(), adminState)
	return rp.text, err
}

// AdminShards fetches per-lane diagnostics and renders them client-side in
// the classic one-line-per-shard format.
func (c *Client) AdminShards() (string, error) {
	shards, err := c.AdminShardInfo(context.Background())
	if err != nil {
		return "", err
	}
	return renderShards(shards), nil
}

// AdminWAL fetches the durability snapshot and renders it client-side.
func (c *Client) AdminWAL() (string, error) {
	st, durable, err := c.AdminWALStats(context.Background())
	if err != nil {
		return "", err
	}
	return renderWAL(st, durable), nil
}

// Stmt is a client handle to a server-side prepared statement: the SQL text
// crossed the wire once (PrepareContext) and every execution ships only the
// statement id plus a binary-encoded parameter vector — int64 and float64
// parameters round-trip exactly, with no text formatting in between.
//
// Statement ids are scoped to the connection that prepared them; closing the
// connection discards every statement it prepared.
type Stmt struct {
	c         *Client
	id        uint64
	nParams   int
	entangled bool
	closed    atomic.Bool
}

// PrepareContext compiles one statement server-side and returns its handle.
func (c *Client) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	r, err := c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendPrepare(id, sql)
	})
	if err != nil {
		return nil, err
	}
	if r.rp.kind != kindPrepared {
		return nil, fmt.Errorf("server: unexpected reply kind 0x%02x to prepare", r.rp.kind)
	}
	return &Stmt{c: c, id: r.rp.stmt, nParams: r.rp.nParams, entangled: r.rp.prepEnt}, nil
}

// Prepare is PrepareContext with context.Background().
func (c *Client) Prepare(sql string) (*Stmt, error) {
	return c.PrepareContext(context.Background(), sql)
}

// NumParams returns the parameter-vector length executions expect.
func (st *Stmt) NumParams() int { return st.nParams }

// Entangled reports whether executions coordinate (use Submit, not Query).
func (st *Stmt) Entangled() bool { return st.entangled }

func (st *Stmt) check() error {
	if st.closed.Load() {
		return fmt.Errorf("server: prepared statement s%d is closed", st.id)
	}
	return nil
}

// QueryContext executes the prepared statement with the bound vector.
func (st *Stmt) QueryContext(ctx context.Context, params value.Tuple) (*QueryResult, error) {
	if err := st.check(); err != nil {
		return nil, err
	}
	r, err := st.c.roundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendExecPrepared(id, st.id, "", 0, params)
	})
	if err != nil {
		return nil, err
	}
	switch r.rp.kind {
	case kindResultEnd:
		return r.res, nil
	case kindOK:
		return &QueryResult{}, nil
	case kindEntangled:
		return nil, fmt.Errorf("server: Query cannot run entangled statements; use Submit")
	default:
		return nil, fmt.Errorf("server: unexpected reply kind 0x%02x", r.rp.kind)
	}
}

// Query executes with Go-native arguments (see value.NewTuple).
func (st *Stmt) Query(args ...any) (*QueryResult, error) {
	return st.QueryContext(context.Background(), value.NewTuple(args...))
}

// SubmitContext executes an entangled prepared statement: the template is
// bound server-side and submitted to the coordination component, skipping
// parse and compile — and the wire carries no SQL text at all. The returned
// channel and TTL semantics match Client.SubmitContext.
func (st *Stmt) SubmitContext(ctx context.Context, owner string, params value.Tuple) (uint64, <-chan Event, error) {
	if err := st.check(); err != nil {
		return 0, nil, err
	}
	ttl := ttlFrom(ctx)
	return st.c.submitRoundTrip(ctx, func(f *frameBuf, id uint64) error {
		return f.appendExecPrepared(id, st.id, owner, ttl, params)
	})
}

// Submit is SubmitContext with context.Background() and native arguments.
func (st *Stmt) Submit(owner string, args ...any) (uint64, <-chan Event, error) {
	return st.SubmitContext(context.Background(), owner, value.NewTuple(args...))
}

// Close drops the statement from the server's per-connection table. Further
// executions fail; closing twice is an error-free no-op client-side.
func (st *Stmt) Close() error {
	if st.closed.Swap(true) {
		return nil
	}
	_, err := st.c.roundTrip(context.Background(), func(f *frameBuf, id uint64) error {
		return f.appendClosePrepared(id, st.id)
	})
	return err
}
