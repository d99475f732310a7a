package wire

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestPoolDefaultsToSingleConn(t *testing.T) {
	c := NewClient("127.0.0.1:1")
	defer c.Close()
	if len(c.slots) != 1 {
		t.Fatalf("default pool size = %d, want 1", len(c.slots))
	}
	c2 := NewPooledClient("127.0.0.1:1", -3)
	defer c2.Close()
	if len(c2.slots) != 1 {
		t.Fatalf("negative pool size should normalise to 1, got %d", len(c2.slots))
	}
}

func TestPoolLazyDial(t *testing.T) {
	_, addr := startEcho(t)
	c := NewPooledClient(addr, 4)
	defer c.Close()
	if st := c.Stats(); st.Conns != 0 {
		t.Fatalf("no call yet, but %d conns open", st.Conns)
	}
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Conns != 1 {
		t.Fatalf("one call should open exactly one conn, got %d", st.Conns)
	}
}

func TestPoolStripesAcrossConns(t *testing.T) {
	s, addr := startEcho(t)
	c := NewPooledClient(addr, 3)
	defer c.Close()
	for i := 0; i < 6; i++ {
		if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Conns != 3 {
		t.Fatalf("6 round-robin calls over pool of 3 should open 3 conns, got %d", st.Conns)
	}
	// The server must see the same number of distinct connections.
	s.mu.Lock()
	serverConns := len(s.conns)
	s.mu.Unlock()
	if serverConns != 3 {
		t.Fatalf("server sees %d conns, want 3", serverConns)
	}
}

func TestPoolConcurrentCalls(t *testing.T) {
	_, addr := startEcho(t)
	c := NewPooledClient(addr, 4)
	defer c.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 128)
	for i := 0; i < 128; i++ {
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

// TestPoolEvictsAndRedials: killing the server evicts every pooled
// connection; a restarted server on the same address is reachable again
// without constructing a new client.
func TestPoolEvictsAndRedials(t *testing.T) {
	s, addr := startEcho(t)
	c := NewPooledClient(addr, 3)
	defer c.Close()
	for i := 0; i < 3; i++ {
		if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Wait for the read loops to observe the close and evict.
	deadline := time.Now().Add(2 * time.Second)
	for c.Stats().Conns != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("evictions never completed: %+v", c.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	d := NewDispatcher()
	d.Register("echo", func(ctx context.Context, method string, body Body) (interface{}, error) {
		return echoResp{Msg: "back"}, nil
	})
	s2, err := Serve(addr, d.Handle)
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	deadline = time.Now().Add(2 * time.Second)
	for {
		var resp echoResp
		err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, &resp)
		if err == nil && resp.Msg == "back" {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pool never redialled: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestPoolCloseFailsCalls(t *testing.T) {
	_, addr := startEcho(t)
	c := NewPooledClient(addr, 2)
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "x"}, nil); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if err := c.Call(context.Background(), "echo", echoReq{Msg: "y"}, nil); err == nil {
		t.Error("call on closed pooled client should fail")
	}
}
