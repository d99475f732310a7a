package coordclient

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/wire"
)

// startMember serves a fake coordinator replica whose handler is fn.
func startMember(t *testing.T, fn func(method string) (interface{}, error)) string {
	t.Helper()
	srv, err := wire.Serve("127.0.0.1:0", func(_ context.Context, method string, _ wire.Body) (interface{}, error) {
		return fn(method)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv.Addr()
}

// instantClock fires every timer at once, so backoffs collapse, and
// records what each was armed for.
type instantClock struct {
	*clock.Fake
	waits []time.Duration
}

func newInstantClock() *instantClock { return &instantClock{Fake: clock.NewFake(time.Time{})} }

func (c *instantClock) NewTimer(d time.Duration) clock.Timer {
	c.waits = append(c.waits, d)
	return c.Fake.NewTimer(0)
}

type pong struct {
	From string `json:"from"`
}

func TestLeaderHintParsing(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want string
	}{
		{nil, ""},
		{errors.New("membership: not leader"), ""},
		{errors.New("membership: not leader; leader=10.0.0.7:7001"), "10.0.0.7:7001"},
		{errors.New("wire: member.view: membership: not leader; leader=127.0.0.1:9"), "127.0.0.1:9"},
	} {
		if got := leaderHint(tc.err); got != tc.want {
			t.Errorf("leaderHint(%v) = %q, want %q", tc.err, got, tc.want)
		}
	}
}

func TestCallFollowsRedirectAndSticks(t *testing.T) {
	var leaderAddr string
	leader := startMember(t, func(string) (interface{}, error) {
		return pong{From: "leader"}, nil
	})
	leaderAddr = leader
	follower := startMember(t, func(string) (interface{}, error) {
		return nil, fmt.Errorf("membership: not leader; leader=%s", leaderAddr)
	})

	// Peer order puts the follower first: the first call must follow the
	// redirect hint straight to the leader, not rotate blindly.
	cl, err := New([]string{follower, leader}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var out pong
	if err := cl.Call(context.Background(), "member.view", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.From != "leader" {
		t.Fatalf("answered by %q", out.From)
	}
	if cl.Current() != leader {
		t.Errorf("client should stick to the leader, stuck to %s", cl.Current())
	}
	// Subsequent calls go to the leader directly.
	if err := cl.Call(context.Background(), "member.view", nil, &out); err != nil {
		t.Fatal(err)
	}
	if cl.Current() != leader {
		t.Errorf("stickiness lost: %s", cl.Current())
	}
}

func TestCallRotatesPastDeadPeer(t *testing.T) {
	live := startMember(t, func(string) (interface{}, error) {
		return pong{From: "live"}, nil
	})
	// A peer that is down entirely: reserve an address and close it.
	dead := startMember(t, func(string) (interface{}, error) { return nil, errors.New("unreachable") })
	cl, err := New([]string{dead, live}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var out pong
	if err := cl.Call(context.Background(), "member.view", nil, &out); err != nil {
		t.Fatal(err)
	}
	if out.From != "live" {
		t.Fatalf("answered by %q", out.From)
	}
}

func TestCallBacksOffBetweenPasses(t *testing.T) {
	calls := 0
	flaky := startMember(t, func(string) (interface{}, error) {
		calls++
		if calls < 2 {
			return nil, errors.New("election in progress")
		}
		return pong{From: "flaky"}, nil
	})
	clk := newInstantClock()
	cl, err := New([]string{flaky}, Config{BaseBackoff: 80 * time.Millisecond, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	var out pong
	if err := cl.Call(context.Background(), "member.view", nil, &out); err != nil {
		t.Fatal(err)
	}
	waits := clk.waits
	if len(waits) != 1 {
		t.Fatalf("expected one backoff between passes, saw %v", waits)
	}
	// Jittered over [½·base, base).
	if waits[0] < 40*time.Millisecond || waits[0] > 80*time.Millisecond {
		t.Errorf("backoff %v outside the jitter window [40ms, 80ms]", waits[0])
	}
}

func TestCallExhaustsPasses(t *testing.T) {
	down := startMember(t, func(string) (interface{}, error) { return nil, errors.New("nope") })
	cl, err := New([]string{down}, Config{Passes: 2, Clock: newInstantClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	err = cl.Call(context.Background(), "member.view", nil, &pong{})
	if err == nil {
		t.Fatal("exhausted call should error")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := cl.Call(ctx, "member.view", nil, &pong{}); !errors.Is(err, context.Canceled) {
		t.Errorf("cancelled context should surface, got %v", err)
	}
}
