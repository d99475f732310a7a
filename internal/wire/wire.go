// Package wire is the RPC substrate of the ROAR cluster: length-prefixed
// messages over TCP, with request/response multiplexing across a small
// pool of connections per peer pair.
//
// §4.8.4 discusses the transport choice: TCP for reliability, with the
// observation that data-center RPCs are application-limited and must not
// head-of-line block the scheduler. We multiplex concurrent requests by
// id (so one slow response never blocks dispatching new sub-queries) and
// stripe calls round-robin across the pool so request writes are not
// serialised behind one mutex at high concurrency. A connection that
// errors is evicted from the pool and lazily redialled.
//
// The client has net/rpc's shape. Client.Go starts a call and returns
// at once: the request is encoded, registered in its connection's
// in-flight table and written by the caller's goroutine. The call then
// belongs to the wire until its completion (the response frame, or the
// failure that replaced it) is appended to the Sink it was started on,
// carrying the starter's tag and its arrival time; from there it belongs
// to the sink's one consumer. Many calls, on any number of clients,
// share a sink, so one goroutine can run a whole fan-out. A sink is an
// unbounded queue with a one-slot wake-up, never a channel someone must
// be receiving from: the read loops and evict cannot block on it,
// whatever was started, and a closed sink turns completions away.
// Pending.Abandon gives a call up (a deadline, a hedged request that
// lost its race): it is unregistered, and the server is sent an in-band
// cancel frame so it stops the handler instead of computing an answer
// nobody will read; the connection survives. Client.Call is Go, a wait
// and an Abandon when its context ends first.
//
// There is one dialect (codec.go): a binary envelope whose bodies are
// binary or JSON according to their Go type. A connection opens with an
// 8-byte preamble, "ROAR" ‖ uint32(Version), which the server echoes; a
// peer that answers with another version, or with anything that is not
// the preamble, fails the dial with *VersionError and the connection is
// closed. Nothing downgrades or retries in another encoding (the
// versioning policy is in docs/HA.md).
package wire

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// MaxFrame bounds a single message (16 MiB) to fail fast on corruption.
const MaxFrame = 16 << 20

// handshakeTimeout bounds the server's wait for a new connection's
// preamble, so a peer that connects and says nothing (a port scanner, a
// half-open dial) cannot hold a goroutine and a socket forever. It
// equals dialTimeout, the budget the other side of the same exchange
// runs under.
const handshakeTimeout = 5 * time.Second

// dialTimeout bounds each client connection attempt, including the
// version handshake.
const dialTimeout = 5 * time.Second

// Handler serves one request. Returning an error sends it to the caller
// as a call failure; the connection stays up. The body's backing bytes
// are only valid for the duration of the call — Decode copies whatever
// the request struct retains, so decode-then-use handlers need no care.
type Handler func(ctx context.Context, method string, body Body) (interface{}, error)

// --- typed errors ---
//
// A handler error crosses the wire as text, which is fine for humans
// but not for clients that must branch on the failure class. Matching
// prose is fragile: a proxy error can embed the same words, and a
// reworded message silently breaks the branch. So errors that implement
// ErrorCoder are sent with a stable machine-readable marker, "[code] "
// prefixed to the text, and the client hands the parsed class back in
// RemoteError.Code. Uncoded errors travel unchanged with Code "".

// Error codes attached by this package and by body decoders. The wire
// contract for a code is 1-32 bytes of lowercase ASCII letters and
// dashes.
const (
	// CodeUnknownMethod: the server has no handler for the method.
	CodeUnknownMethod = "unknown-method"
	// CodeTrailingBytes: a strict body decoder rejected unread trailing
	// bytes (declared by proto.TrailingBytesError, which must keep this
	// literal in sync).
	CodeTrailingBytes = "trailing-bytes"
	// CodeStaleEpoch: a node rejected an epoch-fenced put whose view
	// epoch is older than the newest the node has observed: the caller
	// must re-pull the view and re-route (declared by
	// node.StaleEpochError, which must keep this literal in sync).
	CodeStaleEpoch = "stale-epoch"
	// CodeBinaryBody / CodeJSONBody: the body's codec byte does not match
	// the codec the receiving type speaks.
	CodeBinaryBody = "binary-body"
	CodeJSONBody   = "json-body"
)

// VersionError is a failed connection handshake: the peer's preamble
// named another Version (Remote), or was not a preamble at all (Remote
// 0). It is a transport error, never a RemoteError: the connection is
// closed and the call that dialled it fails.
type VersionError struct {
	Local, Remote uint32
}

func (e *VersionError) Error() string {
	if e.Remote == 0 {
		return fmt.Sprintf("wire: peer does not speak the ROAR wire protocol (local version %d)", e.Local)
	}
	return fmt.Sprintf("wire: version mismatch: local %d, remote %d", e.Local, e.Remote)
}

// ErrorCoder is implemented by handler errors that carry a
// machine-readable class. Checked with errors.As, so wrapped errors
// keep their code.
type ErrorCoder interface{ WireErrorCode() string }

// UnknownMethodError is the Dispatcher's rejection of an unregistered
// method. It crosses the wire as CodeUnknownMethod.
type UnknownMethodError struct{ Method string }

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("wire: unknown method %q", e.Method)
}

func (e *UnknownMethodError) WireErrorCode() string { return CodeUnknownMethod }

// BinaryBodyError is Body.Decode's rejection of a binary payload aimed
// at a type with no binary decoder. It crosses the wire as
// CodeBinaryBody.
type BinaryBodyError struct{ Type string }

func (e *BinaryBodyError) Error() string {
	return "wire: " + e.Type + " cannot decode a binary body"
}

func (e *BinaryBodyError) WireErrorCode() string { return CodeBinaryBody }

// JSONBodyError is the symmetric rejection: a JSON payload aimed at a
// type whose one wire form is binary. It crosses the wire as
// CodeJSONBody.
type JSONBodyError struct{ Type string }

func (e *JSONBodyError) Error() string {
	return "wire: " + e.Type + " travels binary; got a JSON body"
}

func (e *JSONBodyError) WireErrorCode() string { return CodeJSONBody }

// RemoteError is a failure the remote HANDLER reported — as opposed to
// a transport failure (dial, framing, connection loss), which never
// produces one. Callers distinguish "the server answered and said no"
// from "the network ate the call" with errors.As. Code carries the
// machine-readable class when the server attached one; "" otherwise.
type RemoteError struct {
	Method string
	Code   string
	Msg    string
}

func (e *RemoteError) Error() string { return "wire: " + e.Method + ": " + e.Msg }

// validErrCode bounds codes to the wire contract.
func validErrCode(code string) bool {
	if len(code) == 0 || len(code) > 32 {
		return false
	}
	for i := 0; i < len(code); i++ {
		c := code[i]
		if c != '-' && (c < 'a' || c > 'z') {
			return false
		}
	}
	return true
}

// errorText renders a handler error for the response frame, prefixing
// the "[code] " marker when the error declares a valid code.
func errorText(err error) string {
	var ec ErrorCoder
	if errors.As(err, &ec) {
		if code := ec.WireErrorCode(); validErrCode(code) {
			return "[" + code + "] " + err.Error()
		}
	}
	return err.Error()
}

// parseRemoteError turns a response frame's error text into the typed
// form, splitting off the "[code] " marker when present. A bracketed
// prefix that is not a valid code stays in the message — an organic
// bracket, not a contract violation.
func parseRemoteError(method, text string) *RemoteError {
	if strings.HasPrefix(text, "[") {
		if i := strings.IndexByte(text, ']'); i > 1 && i+1 < len(text) && text[i+1] == ' ' && validErrCode(text[1:i]) {
			return &RemoteError{Method: method, Code: text[1:i], Msg: text[i+2:]}
		}
	}
	return &RemoteError{Method: method, Msg: text}
}

// Server accepts connections and dispatches requests to a Handler.
// Requests on one connection are served concurrently, matching the
// node's need to overlap long matching work with management traffic.
type Server struct {
	ln      net.Listener
	handler Handler

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup
}

// Serve starts a server on addr ("127.0.0.1:0" for an ephemeral port).
func Serve(addr string, h Handler) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	return ServeListener(ln, h), nil
}

// ServeListener serves on an already-bound listener. Replicated
// control planes need this: a replica must know every peer's address,
// including its own, before any replica is constructed, so harnesses
// bind all the listeners first and hand them over.
func ServeListener(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, handler: h, conns: make(map[net.Conn]struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Close stops accepting, closes all live connections (which cancels
// their handlers' contexts) and returns once every handler has
// returned, so the caller may tear down the state handlers use.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
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
			return
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
		go s.serveConn(conn)
	}
}

// acceptPreamble runs the server half of the handshake: read the
// client's preamble under handshakeTimeout, echo ours, and report
// whether the connection may carry frames. A client on another version
// still gets the echo, so its dial fails with both numbers; a peer that
// is not speaking the protocol gets nothing.
func acceptPreamble(conn net.Conn, br *bufio.Reader) bool {
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	var p [preambleLen]byte
	if _, err := io.ReadFull(br, p[:]); err != nil {
		return false
	}
	// An idle connection that has shaken hands is legitimate: no read
	// deadline from here on.
	_ = conn.SetReadDeadline(time.Time{})
	v, ok := peerVersion(p)
	if !ok {
		return false
	}
	if _, err := conn.Write(appendPreamble(nil)); err != nil {
		return false
	}
	return v == Version
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	ctx, cancel := context.WithCancel(context.Background()) //lint:allow background — a connection's lifetime IS this root; cancelled when the conn closes
	// Handlers of this connection's requests. The exit path cancels them,
	// closes the socket under any response write, and waits, so that
	// Server.Close returning means no handler is still running.
	var handlers sync.WaitGroup
	defer func() {
		cancel()
		conn.Close()
		handlers.Wait()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	if !acceptPreamble(conn, br) {
		return
	}
	var wmu sync.Mutex // serialises response frames
	// In-progress requests on this connection, so a cancel frame can
	// abort the matching handler's context mid-flight.
	var rmu sync.Mutex
	running := make(map[uint64]context.CancelFunc)
	for {
		f, err := readFrame(br)
		if err != nil {
			return
		}
		if f.kind == kindCancel {
			rmu.Lock()
			if abort, ok := running[f.ID]; ok {
				abort()
			}
			rmu.Unlock()
			f.release()
			continue // control frame: no handler, no response
		}
		rctx, rcancel := context.WithCancel(ctx)
		rmu.Lock()
		running[f.ID] = rcancel
		rmu.Unlock()
		handlers.Add(1)
		go func(req *frame, rctx context.Context, rcancel context.CancelFunc) {
			defer handlers.Done()
			defer func() {
				rmu.Lock()
				delete(running, req.ID)
				rmu.Unlock()
				rcancel()
				req.release()
			}()
			resp := frame{ID: req.ID, kind: kindResponse}
			out, err := s.handler(rctx, req.Type, Body{codec: req.codec, data: req.Body})
			var bodyBuf *[]byte
			if err != nil {
				resp.Err = errorText(err)
			} else if out != nil {
				bodyBuf = getBuf()
				data, codec, eerr := encodeBody(out, *bodyBuf)
				if eerr != nil {
					resp.Err = fmt.Sprintf("wire: encoding response: %v", eerr)
				} else {
					resp.Body, resp.codec = data, codec
					if codec == codecBinary {
						*bodyBuf = data[:0] // pool the possibly-grown buffer
					}
				}
			}
			wmu.Lock()
			_ = writeFrame(conn, &resp)
			wmu.Unlock()
			if bodyBuf != nil {
				putBuf(bodyBuf)
			}
		}(f, rctx, rcancel)
	}
}

// ClientConfig tunes a client's connection pool.
type ClientConfig struct {
	// PoolSize is the number of TCP connections calls are striped
	// across (default 1). One multiplexed connection is correct but
	// serialises all request writes behind a single mutex and a single
	// kernel send buffer; a pool removes that bottleneck under high
	// frontend concurrency.
	PoolSize int
}

// Client is a pooled, multiplexing RPC client for one remote server.
// Safe for concurrent use. Calls are striped round-robin across up to
// PoolSize connections, each dialled lazily on first use; every
// connection multiplexes many in-flight requests by id. A connection
// that fails (dial, write, or read error) is evicted from the pool and
// redialled on the next call that lands on its slot.
type Client struct {
	addr   string
	nextID atomic.Uint64 // request ids, shared across the pool
	rr     atomic.Uint64 // round-robin cursor
	closed atomic.Bool
	slots  []*slot
}

// slot is one pool position. Each slot has its own lock so a slow dial
// on an empty slot never blocks calls striped to the healthy
// connections of the other slots.
type slot struct {
	mu sync.Mutex
	cc *clientConn
}

// clientConn is one pooled connection with its own in-flight table.
type clientConn struct {
	conn net.Conn
	br   *bufio.Reader
	wmu  sync.Mutex // serialises request frames on this connection

	pmu     sync.Mutex
	pending map[uint64]*Pending
	broken  atomic.Bool
}

// take unregisters call id and returns it, or nil when it is no longer
// in flight. Whoever takes a call is the one to complete or abandon it.
func (cc *clientConn) take(id uint64) *Pending {
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	p := cc.pending[id]
	delete(cc.pending, id)
	return p
}

// ErrClosed is returned by calls on a closed client.
var ErrClosed = errors.New("wire: client closed")

// NewClient returns a lazy single-connection client; the connection
// opens on first Call.
func NewClient(addr string) *Client {
	return NewClientWithConfig(addr, ClientConfig{})
}

// NewClientWithConfig returns a lazy pooled client.
func NewClientWithConfig(addr string, cfg ClientConfig) *Client {
	c := &Client{addr: addr, slots: make([]*slot, max(cfg.PoolSize, 1))}
	for i := range c.slots {
		c.slots[i] = &slot{}
	}
	return c
}

// ClientStats is a point-in-time pool snapshot.
type ClientStats struct {
	Conns    int // healthy dialled connections
	InFlight int // calls registered and neither answered nor abandoned
}

// Stats snapshots the pool.
func (c *Client) Stats() ClientStats {
	var st ClientStats
	for _, s := range c.slots {
		s.mu.Lock()
		if cc := s.cc; cc != nil {
			st.Conns++
			cc.pmu.Lock()
			st.InFlight += len(cc.pending)
			cc.pmu.Unlock()
		}
		s.mu.Unlock()
	}
	return st
}

// Close tears all connections down; in-flight calls fail.
func (c *Client) Close() error {
	c.closed.Store(true)
	var err error
	for _, s := range c.slots {
		s.mu.Lock()
		if s.cc != nil {
			if e := s.cc.conn.Close(); err == nil {
				err = e
			}
			s.cc = nil
		}
		s.mu.Unlock()
	}
	return err
}

// conn returns the healthy connection for pool index i, dialling (and
// shaking hands) if the slot is empty — lazy dial, and redial after
// eviction. Only the slot's own lock is held across the dial, so
// a dead slot cannot stall calls on its healthy neighbours.
func (c *Client) conn(i int) (*clientConn, error) {
	s := c.slots[i]
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if s.cc != nil {
		return s.cc, nil
	}
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, err)
	}
	if c.closed.Load() {
		conn.Close()
		return nil, ErrClosed
	}
	cc := &clientConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), pending: make(map[uint64]*Pending)}
	// The handshake shares the dial budget: a server that hangs
	// mid-handshake is as dead as one that refuses the connection.
	_ = conn.SetDeadline(time.Now().Add(dialTimeout))
	if err := handshake(cc); err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: handshake with %s: %w", c.addr, err)
	}
	_ = conn.SetDeadline(time.Time{})
	s.cc = cc
	go c.readLoop(i, cc)
	return cc, nil
}

// handshake runs the client half of the version exchange on a fresh
// connection (no other traffic yet, so reading synchronously is safe):
// send our preamble, require the server's to match.
func handshake(cc *clientConn) error {
	if _, err := cc.conn.Write(appendPreamble(nil)); err != nil {
		return err
	}
	var p [preambleLen]byte
	if _, err := io.ReadFull(cc.br, p[:]); err != nil {
		return err
	}
	if v, ok := peerVersion(p); !ok || v != Version {
		return &VersionError{Local: Version, Remote: v}
	}
	return nil
}

// evict removes a failed connection from the pool (health-aware
// eviction: any transport error disqualifies the connection; the slot
// redials on next use) and fails its in-flight calls.
func (c *Client) evict(i int, cc *clientConn, cause error) {
	if cc.broken.Swap(true) {
		return // already evicted
	}
	s := c.slots[i]
	s.mu.Lock()
	if s.cc == cc {
		s.cc = nil
	}
	s.mu.Unlock()
	cc.conn.Close()
	cc.pmu.Lock()
	defer cc.pmu.Unlock()
	for id, p := range cc.pending {
		delete(cc.pending, id)
		p.complete(nil, fmt.Errorf("wire: connection lost: %v", cause))
	}
}

func (c *Client) readLoop(i int, cc *clientConn) {
	for {
		f, err := readFrame(cc.br)
		if err != nil {
			c.evict(i, cc, err)
			return
		}
		if p := cc.take(f.ID); p != nil {
			p.complete(f, nil)
		} else {
			f.release() // late response for an abandoned call
		}
	}
}

// Sink collects the completions of any number of calls for one
// consumer, which waits on Ready and drains with Next. It is an
// unbounded queue, not a channel, because the goroutines that complete
// calls (every connection's readLoop, and evict with the in-flight
// table locked) must never block on a consumer: a sink takes a
// completion whatever the number of calls started on it, and after
// Close it refuses them, so a consumer that has gone away holds
// nothing.
type Sink struct {
	now   func() time.Time
	ready chan struct{} // capacity 1: "the queue is not empty"

	mu         sync.Mutex
	head, tail *Pending
	closed     bool
}

// NewSink returns an empty sink that stamps arrivals with now.
func NewSink(now func() time.Time) *Sink {
	return &Sink{now: now, ready: make(chan struct{}, 1)}
}

// Ready is signalled when a completion has been queued since the last
// receive from it. A receive may find Next already drained.
func (s *Sink) Ready() <-chan struct{} { return s.ready }

// Next removes and returns the oldest queued completion, or nil.
func (s *Sink) Next() *Pending {
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.head
	if p != nil {
		if s.head = p.next; s.head == nil {
			s.tail = nil
		}
		p.next = nil
	}
	return p
}

// Post queues a completion that carries only tag and its arrival time:
// a helper of the consumer (one waiting on something other than the
// wire) wakes it through the queue it already reads. It reports false,
// and queues nothing, once the sink is closed.
func (s *Sink) Post(tag int) bool {
	return s.push(&Pending{Tag: tag})
}

// Close makes the sink refuse further completions. What is already
// queued stays for Next.
func (s *Sink) Close() {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
}

func (s *Sink) push(p *Pending) bool {
	p.Arrived = s.now()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false
	}
	if s.tail == nil {
		s.head = p
	} else {
		s.tail.next = p
	}
	s.tail = p
	s.mu.Unlock()
	select {
	case s.ready <- struct{}{}:
	default:
	}
	return true
}

// Pending is one call started with Go. Until it is delivered to its
// sink it belongs to the wire (the connection's in-flight table);
// afterwards to the sink's consumer, which calls Result or Release once.
// The starter may Abandon it at any time.
type Pending struct {
	Tag     int       // the starter's name for the call; ids are per Client and collide across them
	Arrived time.Time // stamped by the sink as the completion was queued

	next   *Pending
	sink   *Sink
	method string
	id     uint64
	f      *frame // the response; nil when err is set
	err    error  // a failure on this side: encode, dial, write, connection lost

	mu        sync.Mutex  // orders Abandon against a start still dialling
	cc        *clientConn // set once registered in cc.pending
	abandoned bool
}

// complete hands a finished call to its sink, or reclaims the response
// when the consumer is gone.
func (p *Pending) complete(f *frame, err error) {
	p.f, p.err = f, err
	if !p.sink.push(p) {
		p.Release()
	}
}

// Result decodes the response of a delivered call into out (nil to
// discard) and releases its frame.
func (p *Pending) Result(out interface{}) error {
	if p.f == nil {
		return p.err // a failure on this side, not a handler verdict
	}
	defer p.Release()
	if p.f.Err != "" {
		return parseRemoteError(p.method, p.f.Err)
	}
	if err := decodeInto(p.f, out); err != nil {
		return fmt.Errorf("wire: decoding %s response: %w", p.method, err)
	}
	return nil
}

// Release drops a delivered call's response unread.
func (p *Pending) Release() {
	if p.f != nil {
		p.f.release()
	}
}

// Abandon tells the wire the answer is no longer wanted (a deadline, a
// hedged request that lost its race): the call is unregistered, and if
// its response had not arrived the server is sent a cancel frame so it
// can stop the handler. A completion that was already on its way still
// reaches the sink; the consumer releases it.
func (p *Pending) Abandon() {
	p.mu.Lock()
	p.abandoned = true
	cc := p.cc
	p.mu.Unlock()
	if cc == nil {
		return // never registered; the start sees the flag
	}
	if cc.take(p.id) != nil && !cc.broken.Load() {
		// Best effort: a write failure here just means the connection is
		// already dying.
		cancelFrame := frame{ID: p.id, kind: kindCancel}
		cc.wmu.Lock()
		_ = writeFrame(cc.conn, &cancelFrame)
		cc.wmu.Unlock()
	}
}

// Go starts a call on the next pooled connection and returns at once:
// in is encoded before Go returns (the caller may reuse it), the call is
// registered and its request written. Its completion — the response, or
// whatever failed on the way — is delivered to sink under tag. Only an
// empty pool slot is not handled inline: its dial runs on a goroutine of
// its own, so a starter with other calls to watch never waits for a
// connect.
// Request and response bodies that implement WireAppender/WireDecoder
// travel in their binary encoding; everything else rides as JSON.
func (c *Client) Go(method string, in interface{}, tag int, sink *Sink) *Pending {
	p := &Pending{Tag: tag, sink: sink, method: method, id: c.nextID.Add(1)}
	bodyBuf := getBuf()
	data, codec, err := encodeBody(in, *bodyBuf)
	if err != nil {
		putBuf(bodyBuf)
		p.complete(nil, fmt.Errorf("wire: encoding %s request: %w", method, err))
		return p
	}
	if codec == codecBinary {
		*bodyBuf = data[:0] // pool the possibly-grown append buffer
	}
	i := int(c.rr.Add(1)-1) % len(c.slots)
	c.slots[i].mu.Lock()
	cc := c.slots[i].cc
	c.slots[i].mu.Unlock()
	if cc != nil {
		c.send(p, i, cc, codec, data)
		putBuf(bodyBuf)
		return p
	}
	go func() {
		defer putBuf(bodyBuf)
		cc, err := c.conn(i)
		if err != nil {
			p.complete(nil, err)
			return
		}
		c.send(p, i, cc, codec, data)
	}()
	return p
}

// send registers p on cc and writes its request.
func (c *Client) send(p *Pending, i int, cc *clientConn, codec byte, body []byte) {
	p.mu.Lock()
	if p.abandoned {
		p.mu.Unlock()
		return
	}
	cc.pmu.Lock()
	cc.pending[p.id] = p
	cc.pmu.Unlock()
	p.cc = cc
	p.mu.Unlock()

	req := frame{ID: p.id, Type: p.method, kind: kindRequest, codec: codec, Body: body}
	cc.wmu.Lock()
	werr := writeFrame(cc.conn, &req)
	cc.wmu.Unlock()
	if werr == nil {
		return
	}
	waiting := cc.take(p.id) != nil
	c.evict(i, cc, werr)
	if waiting {
		p.complete(nil, fmt.Errorf("wire: sending %s: %w", p.method, werr))
	}
}

// Call is Go with a sink of its own: it waits for the completion and
// decodes it into out (which may be nil to discard), or abandons the
// call when ctx ends first, without tearing down the shared connection.
func (c *Client) Call(ctx context.Context, method string, in, out interface{}) error {
	sink := NewSink(time.Now)
	p := c.Go(method, in, 0, sink)
	select {
	case <-sink.Ready():
		return sink.Next().Result(out)
	case <-ctx.Done():
		p.Abandon()
		// The response may have been queued just before the abandon;
		// reclaim its pooled buffer instead of leaving it to the GC.
		sink.Close()
		if late := sink.Next(); late != nil {
			late.Release()
		}
		return ctx.Err()
	}
}

// Dispatcher routes methods to typed handlers; a convenience for
// building servers.
type Dispatcher struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewDispatcher returns an empty dispatcher.
func NewDispatcher() *Dispatcher {
	return &Dispatcher{handlers: make(map[string]Handler)}
}

// Register installs a handler for a method name.
func (d *Dispatcher) Register(method string, h Handler) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers[method] = h
}

// Handle implements the server Handler signature.
func (d *Dispatcher) Handle(ctx context.Context, method string, body Body) (interface{}, error) {
	d.mu.RLock()
	h, ok := d.handlers[method]
	d.mu.RUnlock()
	if !ok {
		return nil, &UnknownMethodError{Method: method}
	}
	return h(ctx, method, body)
}
