package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

type echoReq struct {
	Msg   string `json:"msg"`
	Sleep int    `json:"sleep_ms"`
}

type echoResp struct {
	Msg string `json:"msg"`
}

func startEcho(t *testing.T) (*Server, string) {
	t.Helper()
	d := NewDispatcher()
	d.Register("echo", func(ctx context.Context, method string, body Body) (interface{}, error) {
		var req echoReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		if req.Sleep > 0 {
			time.Sleep(time.Duration(req.Sleep) * time.Millisecond)
		}
		return echoResp{Msg: req.Msg}, nil
	})
	d.Register("fail", func(ctx context.Context, method string, body Body) (interface{}, error) {
		return nil, fmt.Errorf("deliberate failure")
	})
	s, err := Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, s.Addr()
}

func TestCallRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	var resp echoResp
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "hello"}, &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Msg != "hello" {
		t.Errorf("echo = %q", resp.Msg)
	}
}

func TestCallError(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	err := c.Call(context.Background(), "fail", nil, nil)
	if err == nil {
		t.Fatal("expected handler error")
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Call(context.Background(), "nope", nil, nil); err == nil {
		t.Fatal("unknown method should error")
	}
}

// TestRemoteErrorCodeRoundTrip: errors a handler reports with a
// WireErrorCode cross the wire typed — the client surfaces a
// *RemoteError carrying the code, so callers classify by evidence
// instead of matching error prose. Plain handler errors arrive as
// RemoteError with no code.
func TestRemoteErrorCodeRoundTrip(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()

	err := c.Call(context.Background(), "nope", nil, nil)
	var re *RemoteError
	if !errors.As(err, &re) {
		t.Fatalf("unknown method error is not a RemoteError: %v", err)
	}
	if re.Code != CodeUnknownMethod {
		t.Errorf("code = %q, want %q", re.Code, CodeUnknownMethod)
	}
	if re.Method != "nope" {
		t.Errorf("method = %q, want nope", re.Method)
	}

	err = c.Call(context.Background(), "fail", nil, nil)
	if !errors.As(err, &re) {
		t.Fatalf("handler error is not a RemoteError: %v", err)
	}
	if re.Code != "" {
		t.Errorf("uncoded handler error grew a code %q", re.Code)
	}
	if re.Msg != "deliberate failure" {
		t.Errorf("msg = %q", re.Msg)
	}
}

func TestConcurrentCalls(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var resp echoResp
			msg := fmt.Sprintf("m%d", i)
			if err := c.Call(context.Background(), "echo", echoReq{Msg: msg}, &resp); err != nil {
				errs <- err
				return
			}
			if resp.Msg != msg {
				errs <- fmt.Errorf("cross-talk: got %q want %q", resp.Msg, msg)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestNoHeadOfLineBlocking: a slow request must not delay a fast one on
// the same connection — the §4.8.4 requirement the multiplexing design
// addresses.
func TestNoHeadOfLineBlocking(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	slow := make(chan error, 1)
	go func() {
		slow <- c.Call(context.Background(), "echo", echoReq{Msg: "slow", Sleep: 300}, nil)
	}()
	time.Sleep(20 * time.Millisecond) // let the slow call get on the wire
	start := time.Now()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "fast"}, nil); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 150*time.Millisecond {
		t.Errorf("fast call took %v behind a slow one; head-of-line blocked", d)
	}
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
}

func TestCallTimeout(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	err := c.Call(ctx, "echo", echoReq{Msg: "x", Sleep: 500}, nil)
	if err == nil {
		t.Fatal("expected deadline exceeded")
	}
	// The connection must survive: a subsequent call works.
	var resp echoResp
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "after"}, &resp); err != nil {
		t.Fatalf("connection unusable after timeout: %v", err)
	}
}

func TestServerClose(t *testing.T) {
	s, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double close should be nil")
	}
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err == nil {
		t.Error("call after server close should fail")
	}
}

func TestClientClose(t *testing.T) {
	_, addr := startEcho(t)
	c := NewClient(addr)
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "y"}, nil); err == nil {
		t.Error("call on closed client should fail")
	}
}

func TestClientRedial(t *testing.T) {
	s, addr := startEcho(t)
	c := NewClient(addr)
	defer c.Close()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	// Kill the server-side connections; the client should redial on the
	// next call against a new server on the same address.
	s.Close()
	d := NewDispatcher()
	d.Register("echo", func(ctx context.Context, method string, body Body) (interface{}, error) {
		return echoResp{Msg: "redialled"}, nil
	})
	s2, err := Serve(addr, d.Handle)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		var resp echoResp
		err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, &resp)
		if err == nil && resp.Msg == "redialled" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("redial never succeeded: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestBadFrameRejected(t *testing.T) {
	f := frame{Type: "x", kind: kindRequest, codec: codecJSON, Body: []byte(`""`)}
	if err := writeFrame(discard{}, &f); err != nil {
		t.Fatalf("small frame should write: %v", err)
	}
	// The write-side MaxFrame check must fail locally, before a byte
	// reaches the (possibly remote) peer.
	big := frame{Type: "x", kind: kindRequest, codec: codecBinary, Body: make([]byte, MaxFrame+1)}
	if err := writeFrame(discard{}, &big); err == nil {
		t.Fatal("oversize frame must be rejected on write")
	}
}

type discard struct{}

func (discard) Write(p []byte) (int, error) { return len(p), nil }

// TestCancelPropagatesToServer pins the hedge-loss path: when a caller
// abandons a Call (context cancelled), the server-side handler's context
// is cancelled too, instead of the handler running to completion for an
// answer nobody is waiting on.
func TestCancelPropagatesToServer(t *testing.T) {
	started := make(chan struct{}, 1)
	aborted := make(chan struct{}, 1)
	d := NewDispatcher()
	d.Register("block", func(ctx context.Context, _ string, _ Body) (interface{}, error) {
		started <- struct{}{}
		select {
		case <-ctx.Done():
			aborted <- struct{}{}
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, fmt.Errorf("handler never cancelled")
		}
	})
	s, err := Serve("127.0.0.1:0", d.Handle)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c := NewClient(s.Addr())
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	callErr := make(chan error, 1)
	go func() { callErr <- c.Call(ctx, "block", nil, nil) }()
	select {
	case <-started:
	case <-time.After(2 * time.Second):
		t.Fatal("handler never started")
	}
	cancel()
	if err := <-callErr; err != context.Canceled {
		t.Fatalf("Call returned %v, want context.Canceled", err)
	}
	select {
	case <-aborted:
	case <-time.After(2 * time.Second):
		t.Fatal("server handler context was never cancelled")
	}
	// The connection must survive the cancellation for subsequent calls.
	var resp echoResp
	d.Register("echo", func(_ context.Context, _ string, body Body) (interface{}, error) {
		var req echoReq
		if err := body.Decode(&req); err != nil {
			return nil, err
		}
		return echoResp{Msg: req.Msg}, nil
	})
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "still-alive"}, &resp); err != nil {
		t.Fatalf("call after cancel: %v", err)
	}
	if resp.Msg != "still-alive" {
		t.Errorf("echo after cancel = %q", resp.Msg)
	}
}

// TestCloseWaitsForHandlers: Server.Close cancels in-flight handlers
// and returns only once they have returned, so the caller can tear down
// the state they run against (a node's store, a coordinator's WAL).
func TestCloseWaitsForHandlers(t *testing.T) {
	started := make(chan struct{})
	var finished atomic.Bool
	s, err := Serve("127.0.0.1:0", func(ctx context.Context, _ string, _ Body) (interface{}, error) {
		close(started)
		<-ctx.Done()
		time.Sleep(50 * time.Millisecond) // unwinding takes a moment
		finished.Store(true)
		return nil, ctx.Err()
	})
	if err != nil {
		t.Fatal(err)
	}
	c := NewClient(s.Addr())
	defer c.Close()
	callErr := make(chan error, 1)
	go func() { callErr <- c.Call(context.Background(), "block", nil, nil) }()
	<-started
	s.Close()
	if !finished.Load() {
		t.Error("Close returned while a handler was still running")
	}
	if err := <-callErr; err == nil {
		t.Error("call survived its server closing")
	}
}

// TestSilentPeerIsDropped: a peer that connects and never sends the
// preamble is closed after handshakeTimeout instead of pinning a
// goroutine and a socket until process exit.
func TestSilentPeerIsDropped(t *testing.T) {
	s, _ := startEcho(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout + 3*time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); !errors.Is(err, io.EOF) {
		t.Fatalf("silent connection: read returned %v, want EOF from a server-side close", err)
	}
	if d := time.Since(start); d < handshakeTimeout-time.Second {
		t.Errorf("dropped after %v, before the %v handshake budget", d, handshakeTimeout)
	}
	// An idle connection that DID shake hands is legitimate and stays.
	c := NewClient(s.Addr())
	defer c.Close()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil { // leakcheck (TestMain) covers the goroutines
		t.Fatal(err)
	}
}

// fakePeer accepts connections, reads whatever the client sends first,
// answers with reply, then reads on until the client closes. It reports
// how many connections it saw and every byte it received, so a test can
// prove no second attempt was made in any other encoding.
type fakePeer struct {
	ln    net.Listener
	wg    sync.WaitGroup
	mu    sync.Mutex
	conns int
	got   []byte
}

func startFakePeer(t *testing.T, reply []byte) *fakePeer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &fakePeer{ln: ln}
	p.wg.Add(1)
	go func() {
		defer p.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			p.mu.Lock()
			p.conns++
			p.mu.Unlock()
			p.wg.Add(1)
			go func() {
				defer p.wg.Done()
				defer conn.Close()
				_, _ = conn.Write(reply)
				buf := make([]byte, 256)
				for {
					n, err := conn.Read(buf)
					p.mu.Lock()
					p.got = append(p.got, buf[:n]...)
					p.mu.Unlock()
					if err != nil {
						return // the client closed the socket
					}
				}
			}()
		}
	}()
	t.Cleanup(func() { ln.Close(); p.wg.Wait() })
	return p
}

// preambleV is the preamble of a build speaking version v.
func preambleV(v uint32) []byte {
	return binary.BigEndian.AppendUint32([]byte(preambleMagic), v)
}

// TestVersionMismatchIsTypedError: a peer on any other dialect fails
// the dial with *VersionError. The client closes the socket, sends
// nothing but its preamble, and does not try again in another encoding.
func TestVersionMismatchIsTypedError(t *testing.T) {
	v0Frame := []byte("\x00\x00\x00\x2e" + `{"id":1,"err":"wire: unknown method \"wire.hello\""}`)
	for _, tc := range []struct {
		name   string
		reply  []byte
		remote uint32
	}{
		{"client older", preambleV(Version + 1), Version + 1},
		{"client newer", preambleV(Version - 1), Version - 1},
		{"Version 2 peer", preambleV(2), 2},
		{"v0 JSON peer", v0Frame, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := startFakePeer(t, tc.reply)
			c := NewClient(p.ln.Addr().String())
			defer c.Close()
			err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil)
			var ve *VersionError
			if !errors.As(err, &ve) {
				t.Fatalf("Call = %v, want *VersionError", err)
			}
			if ve.Local != Version || ve.Remote != tc.remote {
				t.Errorf("VersionError{%d, %d}, want {%d, %d}", ve.Local, ve.Remote, Version, tc.remote)
			}
			var re *RemoteError
			if errors.As(err, &re) {
				t.Error("a handshake failure surfaced as a RemoteError")
			}
			if st := c.Stats(); st.Conns != 0 {
				t.Errorf("mismatched connection stayed pooled: %+v", st)
			}
			p.ln.Close()
			p.wg.Wait() // returns only once the client has closed its socket
			if p.conns != 1 {
				t.Errorf("client dialled %d times for one call", p.conns)
			}
			if !bytes.Equal(p.got, appendPreamble(nil)) {
				t.Errorf("client sent %q beyond its preamble", p.got)
			}
		})
	}
}

// TestServerRejectsOtherVersions: the server half. A client on another
// version gets the server's preamble (so its own dial can name both
// numbers) and then a close; a v0 JSON client gets just the close.
// Neither reaches a handler.
func TestServerRejectsOtherVersions(t *testing.T) {
	var handled atomic.Int64
	s, err := Serve("127.0.0.1:0", func(context.Context, string, Body) (interface{}, error) {
		handled.Add(1)
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var req bytes.Buffer
	if err := writeFrame(&req, &frame{ID: 1, kind: kindRequest, Type: "echo", codec: codecJSON}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		open  []byte
		reply []byte
	}{
		{"other version", preambleV(Version + 1), appendPreamble(nil)},
		{"v0 JSON client", []byte("\x00\x00\x00\x33" + `{"id":1,"type":"wire.hello","body":{"version":1}}`), nil},
	} {
		conn, err := net.Dial("tcp", s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		_, _ = conn.Write(append(tc.open, req.Bytes()...))
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		got, err := io.ReadAll(conn)
		conn.Close()
		if err != nil {
			t.Errorf("%s: server did not close the connection: %v", tc.name, err)
		}
		if !bytes.Equal(got, tc.reply) {
			t.Errorf("%s: server answered %q, want %q", tc.name, got, tc.reply)
		}
	}
	if n := handled.Load(); n != 0 {
		t.Errorf("%d requests from mismatched peers reached the handler", n)
	}
}
