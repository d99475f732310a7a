package frontend

import (
	"sync"
	"time"

	"roar/internal/clock"
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
// idleness on the frontend's clock, so a frontend that went quiet
// re-arms its burst headroom.

// The budget every hedging frontend runs: hedged legs stay within 5 %
// of primaries (the rate hedgeQuantile asks for) plus a burst of 4.
const (
	hedgeBudgetFraction = 0.05
	hedgeBudgetBurst    = 4
)

// bucket is a token balance that refills with time on a clock: the
// hedge budget and each tenant's quota are one.
type bucket struct {
	tokens float64
	last   time.Time // last refill
}

// refill credits rate tokens per second since the last refill, up to
// burst.
func (b *bucket) refill(now time.Time, rate, burst float64) {
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = min(b.tokens+dt*rate, burst)
		b.last = now
	}
}

type hedgeBudget struct {
	mu sync.Mutex
	bucket
	fraction float64 // tokens earned per primary sub-query dispatched
	burst    float64 // bucket capacity; also the initial balance
	clk      clock.Clock
}

// newHedgeBudget builds a full bucket.
func newHedgeBudget(fraction, burst float64, clk clock.Clock) *hedgeBudget {
	return &hedgeBudget{bucket: bucket{tokens: burst, last: clk.Now()}, fraction: fraction, burst: burst, clk: clk}
}

// trickleLocked credits fraction tokens per elapsed second — the
// idle-refill path; the clock is only read here.
func (b *hedgeBudget) trickleLocked() { b.refill(b.clk.Now(), b.fraction, b.burst) }

// earn credits the budget for n dispatched primary sub-queries.
func (b *hedgeBudget) earn(n int) {
	b.mu.Lock()
	b.trickleLocked()
	b.tokens = min(b.tokens+float64(n)*b.fraction, b.burst)
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
