package frontend

import (
	"testing"
	"time"

	"roar/internal/ring"
)

// fakeClock is the injected time source for deterministic budget tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time                    { return c.t }
func (c *fakeClock) advance(d time.Duration)           { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                         { return &fakeClock{t: time.Unix(1e9, 0)} }
func budgetAt(f, b float64, c *fakeClock) *hedgeBudget { return newHedgeBudget(f, b, c.now) }

// TestHedgeBudgetExhaustionStopsHedging: the bucket starts at burst,
// spends one token per leg, and refuses hedges once empty — no wall
// clock involved, so the behaviour is exact.
func TestHedgeBudgetExhaustionStopsHedging(t *testing.T) {
	clk := newFakeClock()
	b := budgetAt(0.1, 2, clk)
	if !b.take(2) {
		t.Fatal("burst tokens must admit the first hedge")
	}
	if b.take(1) {
		t.Fatal("empty bucket admitted a hedge")
	}
	if got := b.balance(); got != 0 {
		t.Fatalf("balance = %v, want 0", got)
	}
}

// TestHedgeBudgetEarnRefillsFromDispatches: primary dispatches are the
// main refill path — fraction tokens each — and resume hedging after
// exhaustion.
func TestHedgeBudgetEarnRefillsFromDispatches(t *testing.T) {
	clk := newFakeClock()
	b := budgetAt(0.1, 2, clk)
	b.take(2) // drain
	b.earn(9) // 0.9 tokens: still short of one leg
	if b.take(1) {
		t.Fatal("0.9 tokens admitted a full leg")
	}
	b.earn(1) // tips over 1.0
	if !b.take(1) {
		t.Fatal("refilled bucket refused a hedge")
	}
	// Earning never exceeds burst.
	b.earn(1000)
	if got := b.balance(); got != 2 {
		t.Fatalf("balance after huge earn = %v, want burst cap 2", got)
	}
}

// TestHedgeBudgetClockTrickleRefills: wall-clock idleness (through the
// injected clock) trickles tokens back at fraction per second, so a
// quiet frontend re-arms without any dispatches.
func TestHedgeBudgetClockTrickleRefills(t *testing.T) {
	clk := newFakeClock()
	b := budgetAt(0.5, 4, clk)
	b.take(4) // drain
	if b.take(1) {
		t.Fatal("drained bucket admitted a hedge")
	}
	clk.advance(1 * time.Second) // +0.5 tokens
	if b.take(1) {
		t.Fatal("half a trickled token admitted a hedge")
	}
	clk.advance(1 * time.Second) // reaches 1.0
	if !b.take(1) {
		t.Fatal("trickle refill did not resume hedging")
	}
	// Trickle is also capped at burst.
	clk.advance(time.Hour)
	if got := b.balance(); got != 4 {
		t.Fatalf("balance after long idle = %v, want burst cap 4", got)
	}
}

// TestHedgeBudgetBoundsGlobalSlownessFraction is the provable-fraction
// property: simulate a workload where EVERY primary wants to hedge (the
// broad-slowness disaster case) and require hedged legs ≤ fraction ×
// primaries + burst, exactly.
func TestHedgeBudgetBoundsGlobalSlownessFraction(t *testing.T) {
	const (
		fraction  = 0.05
		burst     = 4.0
		primaries = 10000
	)
	clk := newFakeClock() // frozen: no trickle, the bound is pure
	b := budgetAt(fraction, burst, clk)
	hedged := 0
	for i := 0; i < primaries; i++ {
		b.earn(1)
		if b.take(1) {
			hedged++
		}
	}
	limit := int(fraction*primaries + burst)
	if hedged > limit {
		t.Fatalf("hedged %d of %d primaries, budget limit %d", hedged, primaries, limit)
	}
	if hedged < int(fraction*primaries) {
		t.Fatalf("hedged only %d; the budget must spend what it earns (≥%d)", hedged, int(fraction*primaries))
	}
	t.Logf("global slowness: %d/%d hedged (%.2f%%, limit %.0f%%)",
		hedged, primaries, 100*float64(hedged)/primaries, 100*fraction)
}

// TestHedgeBudgetNilUnlimited: a nil budget (HedgeBudgetFraction < 0)
// never refuses.
func TestHedgeBudgetNilUnlimited(t *testing.T) {
	var b *hedgeBudget
	for i := 0; i < 100; i++ {
		if !b.take(2) {
			t.Fatal("nil budget refused a hedge")
		}
	}
	b.earn(1) // must not panic
}

// TestPerNodeHedgeDelay pins the satellite fix for the global latency
// distribution: a node that is legitimately slow (large arc) must be
// judged against its own latency history once it has enough samples,
// instead of the fleet-wide quantile that would hedge its every
// sub-query. Below the sample floor the global distribution still
// applies.
func TestPerNodeHedgeDelay(t *testing.T) {
	fe := New(Config{HedgeQuantile: 0.9, ProbeInterval: -1})
	defer fe.Close()
	fast, slow, cold := ring.NodeID(1), ring.NodeID(2), ring.NodeID(3)
	// The fleet is fast: enough 2ms samples that the global quantile
	// stays fast even after the slow node's samples join the ring...
	for i := 0; i < 512; i++ {
		fe.observeLatency(fast, 2*time.Millisecond)
	}
	// ...while the large-arc node consistently takes 50ms.
	for i := 0; i < latWarmup; i++ {
		fe.observeLatency(slow, 50*time.Millisecond)
	}
	fastDelay := fe.hedgeDelay(fast)
	slowDelay := fe.hedgeDelay(slow)
	coldDelay := fe.hedgeDelay(cold)
	if fastDelay <= 0 || fastDelay > 10*time.Millisecond {
		t.Fatalf("fast node hedge delay %v, want a few ms from its own history", fastDelay)
	}
	if slowDelay < 45*time.Millisecond {
		t.Fatalf("slow node hedge delay %v would eagerly hedge its normal 50ms sub-queries", slowDelay)
	}
	// A node below the sample floor falls back to the global quantile.
	if coldDelay != fe.hedgeDelay(ring.NodeID(99)) {
		t.Fatalf("cold nodes must share the global fallback delay")
	}
	if coldDelay > 10*time.Millisecond {
		t.Fatalf("cold-node fallback delay %v, want the global (fast) quantile", coldDelay)
	}
	t.Logf("hedge delays: fast=%v slow=%v cold(global)=%v", fastDelay, slowDelay, coldDelay)
}

// TestHedgeDelayBimodalLegs: with the nodes' match memo a leg is either
// reconciled from memory (~50us) or a cold fill (~1.2ms). While cold
// fills are more than 1-q of a node's legs its quantile sits in their
// mode and none is hedged at its normal latency; when they are rarer
// the quantile falls to the fast mode and the minHedgeDelay floor is
// what keeps the delay from collapsing to microseconds.
func TestHedgeDelayBimodalLegs(t *testing.T) {
	const fast, cold = 50 * time.Microsecond, 1200 * time.Microsecond
	for _, tc := range []struct {
		name      string
		coldEvery int // one leg in coldEvery is a cold fill
		atLeast   time.Duration
	}{
		{"a quarter cold", 4, cold},
		{"one in fifty cold", 50, minHedgeDelay},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fe := New(Config{HedgeQuantile: 0.9, ProbeInterval: -1})
			defer fe.Close()
			n := ring.NodeID(1)
			for i := 0; i < 400; i++ {
				d := fast
				if i%tc.coldEvery == 0 {
					d = cold
				}
				fe.observeLatency(n, d)
			}
			if d := fe.hedgeDelay(n); d < tc.atLeast {
				t.Fatalf("hedge delay %v, want at least %v", d, tc.atLeast)
			}
		})
	}
}

// TestPerNodeTrackerRegression is the end-to-end form of the fix: with
// a fleet-dominated global distribution, the slow node's OWN quantile
// decides, so a primary at its typical latency is not hedged.
// (Before the fix, hedgeDelay ignored the node and the 90th-percentile
// global delay sat near 2ms — every 50ms sub-query hedged.)
func TestPerNodeTrackerRegressionVsGlobal(t *testing.T) {
	fe := New(Config{HedgeQuantile: 0.9, ProbeInterval: -1})
	defer fe.Close()
	slow := ring.NodeID(7)
	for i := 0; i < 512; i++ {
		fe.observeLatency(ring.NodeID(1), 2*time.Millisecond)
	}
	for i := 0; i < latWarmup-1; i++ {
		fe.observeLatency(slow, 50*time.Millisecond)
	}
	// One sample short of the floor: still global, still eager.
	if d := fe.hedgeDelay(slow); d >= 50*time.Millisecond {
		t.Fatalf("below the floor the global delay should rule, got %v", d)
	}
	fe.observeLatency(slow, 50*time.Millisecond) // crosses the floor
	if d := fe.hedgeDelay(slow); d < 45*time.Millisecond {
		t.Fatalf("at the floor the node's own distribution should rule, got %v", d)
	}
}
