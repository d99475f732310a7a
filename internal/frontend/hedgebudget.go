package frontend

import (
	"sync"
	"time"
)

// Hedge budget (Tail-Tolerant Distributed Search: replica hedging only
// pays off when it is rate-limited), always on while hedging is. Without
// it, broad slowness — an overloaded cluster, not one straggler — makes
// *every* sub-query cross the hedge delay, and speculative re-dispatch
// doubles offered load exactly when capacity is scarce. The budget is a
// token bucket denominated in sub-queries: every primary dispatch earns
// `fraction` tokens, every hedged replica leg spends one, so hedged legs
// are bounded by fraction × primaries + burst no matter how slow the
// cluster gets. Tokens also trickle back at fraction per second of
// wall-clock idleness (through the injectable clock), so a frontend
// that went quiet re-arms its burst headroom.

// The budget every hedging frontend runs: hedged legs stay within 5 %
// of primaries (the rate hedgeQuantile asks for) plus a burst of 4.
const (
	hedgeBudgetFraction = 0.05
	hedgeBudgetBurst    = 4
)

type hedgeBudget struct {
	mu       sync.Mutex
	fraction float64 // tokens earned per primary sub-query dispatched
	burst    float64 // bucket capacity; also the initial balance
	tokens   float64
	now      func() time.Time // injectable clock (tests)
	last     time.Time        // last trickle evaluation
}

// newHedgeBudget builds a full bucket. now == nil uses the wall clock.
func newHedgeBudget(fraction, burst float64, now func() time.Time) *hedgeBudget {
	if now == nil {
		now = time.Now //lint:allow wallclock — clock-injection default
	}
	b := &hedgeBudget{fraction: fraction, burst: burst, tokens: burst, now: now}
	b.last = now()
	return b
}

// trickleLocked credits fraction tokens per elapsed second — the
// idle-refill path; the clock is only read here.
func (b *hedgeBudget) trickleLocked() {
	now := b.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.fraction
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
}

// earn credits the budget for n dispatched primary sub-queries.
func (b *hedgeBudget) earn(n int) {
	b.mu.Lock()
	b.trickleLocked()
	b.tokens += float64(n) * b.fraction
	if b.tokens > b.burst {
		b.tokens = b.burst
	}
	b.mu.Unlock()
}

// take attempts to spend n tokens (one per hedge leg about to launch).
func (b *hedgeBudget) take(n int) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked()
	if b.tokens < float64(n) {
		return false
	}
	b.tokens -= float64(n)
	return true
}

// balance reports the current token count (tests, introspection).
func (b *hedgeBudget) balance() float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trickleLocked()
	return b.tokens
}
