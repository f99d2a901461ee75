package server

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
)

// Server accepts middle-tier connections and forwards their statements to a
// core.System. Every connection speaks the v2 framed binary protocol; one
// that does not open with its preamble gets a single error frame and is
// closed.
type Server struct {
	sys *core.System
	ln  net.Listener

	mu     sync.Mutex
	closed bool
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup

	// prepared counts live prepared statements across every connection's
	// table — observable evidence that per-connection tables are torn down
	// on disconnect, not leaked.
	prepared atomic.Int64
}

// PreparedStatements reports the number of prepared statements currently
// held in per-connection tables (diagnostics/tests).
func (s *Server) PreparedStatements() int { return int(s.prepared.Load()) }

// Serve starts serving on ln. It returns when the listener is closed.
func Serve(sys *core.System, ln net.Listener) *Server {
	s := &Server{sys: sys, ln: ln, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Listen is a convenience for Serve over TCP on addr (use "127.0.0.1:0" for
// an ephemeral port; Addr reports the bound address).
func Listen(sys *core.System, addr string) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return Serve(sys, ln), nil
}

// Addr returns the listener's address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting and closes every live connection.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	err := s.ln.Close()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.handle(conn)
	}
}

// conn is the per-connection state: one core.Session (interactive
// transaction state), one context whose cancellation withdraws the
// connection's still-pending entangled queries, and one writer goroutine
// draining an outbound queue — request replies and asynchronous coordination
// events are enqueued from any goroutine and serialized by the writer, so no
// per-event goroutine is ever spawned.
type conn struct {
	srv  *Server
	c    net.Conn
	sess *core.Session

	// ctx is canceled at teardown; every statement runs under it, so the
	// core withdraws entangled queries this connection still owns (their
	// answers could never be delivered anyway).
	ctx    context.Context
	cancel context.CancelFunc

	qmu         sync.Mutex
	qcond       *sync.Cond // signals drain progress to throttled readers
	queue       []outItem  // messages awaiting the writer
	queuedBytes int        // encoded bytes sitting in queue (events estimated)
	dead        bool       // no further enqueues; writer drains and exits
	kick        chan struct{}
	wdone       chan struct{}

	// stmts is this connection's prepared-statement table: wire statement id
	// → compiled artifact. Only the serve goroutine touches it (requests
	// execute serially per connection), and it dies with the connection —
	// exec-after-disconnect is structurally impossible, exec-after-close is
	// an explicit error.
	stmts    map[uint64]*core.PreparedStmt
	nextStmt uint64
}

// outItem is one outbound message: either pre-encoded bytes (request
// replies) or a coordination outcome the WRITER goroutine encodes at drain
// time — so delivery callbacks, which run on the coordinator's goroutine
// with lane locks held, never pay for marshaling a large answer set.
type outItem struct {
	b  []byte
	ev *coord.Outcome
}

// maxQueuedBytes is the per-connection outbound high-water mark: a reader
// that finds more than this queued parks until the writer drains, restoring
// the TCP backpressure the old write-inline server had (a client that
// pipelines requests without reading replies throttles itself instead of
// growing server memory without bound). Event enqueues stay non-blocking —
// they are produced at most once per accepted request, so bounding the
// request path bounds them too.
const maxQueuedBytes = 8 << 20

// enqueue hands an encoded message to the writer. It never blocks: messages
// enqueued after teardown are dropped. Safe to call from coordination
// callbacks that hold lane locks.
func (cn *conn) enqueue(b []byte) { cn.put(outItem{b: b}) }

// enqueueEvent queues a coordination outcome for encoding by the writer.
func (cn *conn) enqueueEvent(out coord.Outcome) { cn.put(outItem{ev: &out}) }

func (cn *conn) put(it outItem) {
	cn.qmu.Lock()
	if cn.dead {
		cn.qmu.Unlock()
		return
	}
	cn.queue = append(cn.queue, it)
	if it.ev != nil {
		cn.queuedBytes += 64 // encoded later; charge a nominal size
	} else {
		cn.queuedBytes += len(it.b)
	}
	cn.qmu.Unlock()
	select {
	case cn.kick <- struct{}{}:
	default:
	}
}

// throttle parks the reader while the outbound queue is over the high-water
// mark. Called between requests from the serve loop only (never from
// delivery callbacks).
func (cn *conn) throttle() {
	cn.qmu.Lock()
	for cn.queuedBytes > maxQueuedBytes && !cn.dead {
		cn.qcond.Wait()
	}
	cn.qmu.Unlock()
}

// writer is the connection's single outbound goroutine: it batches whatever
// has queued since the last write into one writev, encoding queued
// coordination outcomes as it goes. On write error it marks the connection
// dead (dropping future messages) and closes it to unwedge the reader.
func (cn *conn) writer() {
	defer close(cn.wdone)
	var werr error
	var evBuf frameBuf
	for {
		cn.qmu.Lock()
		batch := cn.queue
		cn.queue = nil
		cn.queuedBytes = 0
		dead := cn.dead
		cn.qcond.Broadcast()
		cn.qmu.Unlock()
		if len(batch) == 0 {
			if dead {
				return
			}
			<-cn.kick
			continue
		}
		if werr != nil {
			continue // broken pipe: keep draining so enqueuers stay cheap
		}
		bufs := make(net.Buffers, 0, len(batch))
		for _, it := range batch {
			if it.ev != nil {
				if b := cn.encodeEvent(&evBuf, *it.ev); b != nil {
					bufs = append(bufs, b)
				}
				continue
			}
			bufs = append(bufs, it.b)
		}
		if len(bufs) == 0 {
			continue
		}
		if _, err := bufs.WriteTo(cn.c); err != nil {
			werr = err
			cn.qmu.Lock()
			cn.dead = true
			cn.qcond.Broadcast()
			cn.qmu.Unlock()
			cn.c.Close()
		}
	}
}

// encodeEvent marshals one outcome as a kindEvent frame.
func (cn *conn) encodeEvent(f *frameBuf, out coord.Outcome) []byte {
	f.reset()
	if f.appendEvent(out) != nil {
		return nil
	}
	return append([]byte(nil), f.b...)
}

// shutdownWriter flushes the queue (bounded by the write deadline set in
// handle's teardown) and stops the writer.
func (cn *conn) shutdownWriter() {
	cn.qmu.Lock()
	cn.dead = true
	cn.qmu.Unlock()
	select {
	case cn.kick <- struct{}{}:
	default:
	}
	<-cn.wdone
}

func (s *Server) handle(c net.Conn) {
	defer s.wg.Done()
	cn := &conn{
		srv:   s,
		c:     c,
		sess:  core.NewSession(s.sys),
		kick:  make(chan struct{}, 1),
		wdone: make(chan struct{}),
	}
	cn.qcond = sync.NewCond(&cn.qmu)
	cn.ctx, cn.cancel = context.WithCancel(context.Background())
	go cn.writer()
	defer func() {
		// Give queued replies (e.g. the final error frame) a bounded chance
		// to flush, then tear down. Canceling the context withdraws this
		// connection's pending entangled queries from the coordinator;
		// closing the session rolls back an abandoned transaction; the
		// prepared-statement table goes with the connection.
		cn.c.SetWriteDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck
		cn.shutdownWriter()
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		cn.cancel()
		cn.sess.Close()
		s.prepared.Add(-int64(len(cn.stmts)))
		cn.stmts = nil
	}()

	cn.serveV2(bufio.NewReader(c))
}

// serveV2 checks the preamble, then reads and dispatches frames until the
// connection fails. A wrong preamble is answered with one errBadFrame frame
// before the close.
func (cn *conn) serveV2(br *bufio.Reader) {
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil || magic != v2Magic {
		cn.sendErrorV2(0, errBadFrame, "server: unrecognized protocol preamble")
		return
	}
	var rbuf []byte
	var enc frameBuf
	for {
		// Backpressure before every read — replies to malformed frames are
		// queued output too, so a flood of bad input must park the reader
		// exactly like a flood of valid pipelined requests.
		cn.throttle()
		payload, err := readFrame(br, rbuf)
		rbuf = payload
		if err != nil {
			if err == errFrameSize {
				// The explicit max-frame-size error the protocol promises:
				// the stream position is unrecoverable after an oversized
				// length prefix, so report and close.
				cn.sendErrorV2(0, errFrameTooBig, err.Error())
			}
			return
		}
		req, derr := decodeRequest(payload)
		if derr != nil {
			// Frame boundaries are intact (the frame was read in full), so a
			// bad frame is reported — correlated by any id recovered from
			// its header — and the connection keeps serving.
			cn.sendErrorV2(req.id, errBadFrame, derr.Error())
			continue
		}
		cn.dispatchV2(&enc, req)
	}
}

func (cn *conn) sendErrorV2(id uint64, code byte, msg string) {
	var f frameBuf
	if f.appendError(id, code, msg) == nil {
		cn.enqueue(f.b)
	}
}

// dispatchV2 runs one request and enqueues its reply. Requests are executed
// serially per connection — that preserves session (transaction) semantics —
// but the client may pipeline arbitrarily many: the reader never waits for
// the writer, and replies carry the request id.
func (cn *conn) dispatchV2(enc *frameBuf, req request) {
	enc.reset()
	switch req.kind {
	case kindCancel:
		if cn.srv.sys.Cancel(req.query) {
			enc.appendOK(req.id, "canceled") //nolint:errcheck // small frame
		} else {
			enc.appendError(req.id, errGeneric, fmt.Sprintf("q%d is not pending", req.query)) //nolint:errcheck
		}
	case kindAdmin:
		cn.adminV2(enc, req)
	case kindExec:
		cn.execV2(enc, req)
	case kindExplain:
		cn.explainV2(enc, req)
	case kindPrepare:
		cn.prepareV2(enc, req)
	case kindExecPrepared:
		cn.execPreparedV2(enc, req)
	case kindClosePrepared:
		if _, ok := cn.stmts[req.stmt]; !ok {
			enc.appendError(req.id, errGeneric, fmt.Sprintf("prepared statement s%d is not open", req.stmt)) //nolint:errcheck
		} else {
			delete(cn.stmts, req.stmt)
			cn.srv.prepared.Add(-1)
			enc.appendOK(req.id, "closed") //nolint:errcheck
		}
	}
	if len(enc.b) > 0 {
		cn.enqueue(enc.take())
	}
}

// prepareV2 compiles one statement into this connection's table. The
// artifact itself comes from the system's shared text→artifact cache, so a
// thousand connections preparing the same template share one compilation.
func (cn *conn) prepareV2(enc *frameBuf, req request) {
	if req.sql == "" {
		enc.appendError(req.id, errGeneric, "empty prepare request") //nolint:errcheck
		return
	}
	ps, err := cn.sess.Prepare(req.sql)
	if err != nil {
		enc.appendError(req.id, errGeneric, err.Error()) //nolint:errcheck
		return
	}
	if cn.stmts == nil {
		cn.stmts = make(map[uint64]*core.PreparedStmt)
	}
	cn.nextStmt++
	cn.stmts[cn.nextStmt] = ps
	cn.srv.prepared.Add(1)
	enc.appendPrepared(req.id, cn.nextStmt, ps.NumParams(), ps.Entangled()) //nolint:errcheck // small frame
}

// execPreparedV2 runs one prepared execution: statement id + parameter
// vector in, the same reply shapes as kindExec out (result set, OK, or
// entangled ack followed by an async event).
func (cn *conn) execPreparedV2(enc *frameBuf, req request) {
	ps, ok := cn.stmts[req.stmt]
	if !ok {
		enc.appendError(req.id, errGeneric, fmt.Sprintf("prepared statement s%d is not open", req.stmt)) //nolint:errcheck
		return
	}
	ctx, cancel := cn.ctx, context.CancelFunc(nil)
	if req.ttl > 0 {
		ctx, cancel = context.WithTimeout(cn.ctx, req.ttl)
	}
	resp, err := cn.sess.ExecutePreparedContext(ctx, ps, req.params, req.owner)
	cn.reply(enc, req, resp, err, cancel)
}

func (cn *conn) execV2(enc *frameBuf, req request) {
	if req.sql == "" {
		enc.appendError(req.id, errGeneric, "empty request") //nolint:errcheck
		return
	}
	// A request TTL (the wire form of a client context deadline) bounds an
	// entangled query's pending life: the per-request context expires, and
	// the core's context binding withdraws the query from the coordinator.
	ctx, cancel := cn.ctx, context.CancelFunc(nil)
	if req.ttl > 0 {
		ctx, cancel = context.WithTimeout(cn.ctx, req.ttl)
	}
	resp, err := cn.sess.ExecuteContext(ctx, req.sql, req.owner)
	cn.reply(enc, req, resp, err, cancel)
}

// explainV2 answers a kindExplain request with the typed plan description.
// Nothing executes; the optional parameter vector refines the estimates.
func (cn *conn) explainV2(enc *frameBuf, req request) {
	if req.sql == "" {
		enc.appendError(req.id, errGeneric, "empty explain request") //nolint:errcheck
		return
	}
	d, err := cn.srv.sys.Explain(req.sql, req.params)
	if err != nil {
		enc.appendError(req.id, replErrCode(err), err.Error()) //nolint:errcheck
		return
	}
	if err := enc.appendPlan(req.id, d); err != nil {
		enc.reset()
		enc.appendError(req.id, errGeneric, err.Error()) //nolint:errcheck
	}
}

// reply encodes one execution outcome — shared by the text and prepared
// paths, whose reply shapes are identical.
func (cn *conn) reply(enc *frameBuf, req request, resp *core.Response, err error, cancel context.CancelFunc) {
	if err != nil {
		if cancel != nil {
			cancel()
		}
		enc.appendError(req.id, replErrCode(err), err.Error()) //nolint:errcheck
		return
	}
	if resp.Entangled {
		h := resp.Handle
		enc.appendEntangled(req.id, h.ID) //nolint:errcheck // small frame
		h.Notify(func(out coord.Outcome) {
			if cancel != nil {
				cancel() // release the TTL timer; the outcome is settled
			}
			// The writer goroutine encodes; this callback runs on the
			// coordinator's goroutine with lane locks held and must stay
			// cheap and non-blocking.
			cn.enqueueEvent(out)
		})
		return
	}
	if cancel != nil {
		cancel()
	}
	if resp.Result == nil {
		// Transaction-control statements carry no result set.
		enc.appendOK(req.id, "OK") //nolint:errcheck
		return
	}
	if err := enc.appendResult(req.id, resp.Result.Cols, resp.Result.Rows, resp.Result.Affected); err != nil {
		enc.reset()
		enc.appendError(req.id, errGeneric, err.Error()) //nolint:errcheck
	}
}

// adminV2 answers the typed admin surface with structured snapshots; the
// client renders any text form.
func (cn *conn) adminV2(enc *frameBuf, req request) {
	sys := cn.srv.sys
	switch req.admin {
	case adminState:
		enc.appendAdminState(req.id, sys.Coordinator().DumpState()) //nolint:errcheck
	case adminPending:
		enc.appendAdminPending(req.id, sys.Coordinator().Pending()) //nolint:errcheck
	case adminStats:
		enc.appendAdminStats(req.id, sys.Coordinator().Stats()) //nolint:errcheck
	case adminShards:
		enc.appendAdminShards(req.id, sys.Coordinator().Shards()) //nolint:errcheck
	case adminWAL:
		st, ok := sys.WALStatsSnapshot()
		enc.appendAdminWAL(req.id, st, ok) //nolint:errcheck
	case adminTxn:
		enc.appendAdminTxn(req.id, sys.TxnStats()) //nolint:errcheck
	case adminRepl:
		enc.appendAdminRepl(req.id, adminRepl, sys.ReplStatus()) //nolint:errcheck
	case adminPool:
		st, ok := sys.PoolStats()
		enc.appendAdminPool(req.id, st, ok) //nolint:errcheck
	case adminPromote:
		if err := sys.Promote(); err != nil {
			enc.appendError(req.id, errGeneric, err.Error()) //nolint:errcheck
			return
		}
		enc.appendAdminRepl(req.id, adminPromote, sys.ReplStatus()) //nolint:errcheck
	default:
		enc.appendError(req.id, errGeneric, fmt.Sprintf("unknown admin command %d", req.admin)) //nolint:errcheck
	}
}

// ErrClosed is returned by client operations on a closed connection.
var ErrClosed = errors.New("server: connection closed")
