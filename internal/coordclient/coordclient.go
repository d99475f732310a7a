// Package coordclient is the failover client for the replicated
// control plane: frontends and nodes hold one Client over the full
// coordinator peer list instead of a single wire.Client to a single
// coordinator. Calls stick to the last replica that answered (the
// leader, in steady state); on failure the client follows the
// "leader=<addr>" redirect hint that NotLeaderError carries across the
// wire, else rotates through the peers, with jittered exponential
// backoff between full passes so a leaderless interval (an election in
// progress) does not turn into a synchronized retry storm.
package coordclient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"roar/internal/clock"
	"roar/internal/wire"
)

// Config tunes a failover client. Zero values take the documented
// defaults.
type Config struct {
	// BaseBackoff is the wait after the first failed pass over every
	// peer; it doubles each pass up to MaxBackoff, each wait jittered
	// uniformly over [½·backoff, backoff). Defaults 50ms / 2s.
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// Passes bounds how many full rotations over the peer list one Call
	// attempts before giving up (the context can end a Call sooner).
	// Default 4.
	Passes int
	// Clock times the backoff. Nil means clock.Real.
	Clock clock.Clock
}

func (c Config) withDefaults() Config {
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 50 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 2 * time.Second
	}
	if c.Passes <= 0 {
		c.Passes = 4
	}
	c.Clock = clock.Or(c.Clock)
	return c
}

// Client is a coordinator client that fails over across replicas.
// Safe for concurrent use.
type Client struct {
	cfg   Config
	peers []string
	conns []*wire.Client

	mu  sync.Mutex
	cur int // index of the last peer that answered
}

// New builds a failover client over the replica peer list (order is
// the initial preference order).
func New(peers []string, cfg Config) (*Client, error) {
	if len(peers) == 0 {
		return nil, fmt.Errorf("coordclient: empty peer list")
	}
	c := &Client{cfg: cfg.withDefaults(), peers: append([]string(nil), peers...)}
	for _, p := range c.peers {
		c.conns = append(c.conns, wire.NewClient(p))
	}
	return c, nil
}

// Current returns the address of the peer the client is currently
// stuck to.
func (c *Client) Current() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.peers[c.cur]
}

// Close releases every underlying connection.
func (c *Client) Close() {
	for _, cl := range c.conns {
		cl.Close()
	}
}

// leaderHint extracts the redirect address from a NotLeaderError that
// crossed the wire as text ("... not leader; leader=<addr>").
func leaderHint(err error) string {
	if err == nil {
		return ""
	}
	s := err.Error()
	i := strings.LastIndex(s, "leader=")
	if i < 0 {
		return ""
	}
	addr := s[i+len("leader="):]
	if j := strings.IndexAny(addr, " \t\n"); j >= 0 {
		addr = addr[:j]
	}
	return addr
}

// indexOf maps a peer address to its slot, -1 when unknown.
func (c *Client) indexOf(addr string) int {
	for i, p := range c.peers {
		if p == addr {
			return i
		}
	}
	return -1
}

// Call invokes method against the current leader, failing over on any
// error: redirect hints jump straight to the named replica, other
// failures rotate to the next peer, and exhausting the whole list
// backs off (jittered, exponential) before the next pass.
func (c *Client) Call(ctx context.Context, method string, in, out interface{}) error {
	c.mu.Lock()
	idx := c.cur
	c.mu.Unlock()
	backoff := c.cfg.BaseBackoff
	var lastErr error
	for pass := 0; pass < c.cfg.Passes; pass++ {
		for n := 0; n < len(c.conns); n++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := c.conns[idx].Call(ctx, method, in, out)
			if err == nil {
				c.mu.Lock()
				c.cur = idx
				c.mu.Unlock()
				return nil
			}
			lastErr = err
			if hint := leaderHint(err); hint != "" {
				if j := c.indexOf(hint); j >= 0 && j != idx {
					idx = j
					continue
				}
			}
			idx = (idx + 1) % len(c.conns)
		}
		if pass == c.cfg.Passes-1 {
			break
		}
		wait := backoff/2 + time.Duration(rand.Int63n(int64(backoff/2)+1))
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-clock.After(c.cfg.Clock, wait):
		}
		if backoff *= 2; backoff > c.cfg.MaxBackoff {
			backoff = c.cfg.MaxBackoff
		}
	}
	if lastErr == nil {
		lastErr = errors.New("coordclient: no peers")
	}
	return fmt.Errorf("coordclient: %s failed across %d peers: %w", method, len(c.conns), lastErr)
}
