package frontend

import (
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/ring"
)

func newFakeClock() *clock.Fake                         { return clock.NewFake(time.Unix(1e9, 0)) }
func budgetAt(f, b float64, c *clock.Fake) *hedgeBudget { return newHedgeBudget(f, b, c) }

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

// TestHedgeBudgetClockTrickleRefills: idleness on the frontend's clock
// trickles tokens back at fraction per second, so a
// quiet frontend re-arms without any dispatches.
func TestHedgeBudgetClockTrickleRefills(t *testing.T) {
	clk := newFakeClock()
	b := budgetAt(0.5, 4, clk)
	b.take(4) // drain
	if b.take(1) {
		t.Fatal("drained bucket admitted a hedge")
	}
	clk.Advance(1 * time.Second) // +0.5 tokens
	if b.take(1) {
		t.Fatal("half a trickled token admitted a hedge")
	}
	clk.Advance(1 * time.Second) // reaches 1.0
	if !b.take(1) {
		t.Fatal("trickle refill did not resume hedging")
	}
	// Trickle is also capped at burst.
	clk.Advance(time.Hour)
	if got := b.balance(); got != 4 {
		t.Fatalf("balance after long idle = %v, want burst cap 4", got)
	}
}

// TestHedgeBudgetBoundsGlobalSlownessFraction is the provable-fraction
// property of the budget every hedging frontend runs: simulate a
// workload where EVERY primary wants to hedge (the broad-slowness
// disaster case) and require hedged legs ≤ fraction × primaries +
// burst, exactly.
func TestHedgeBudgetBoundsGlobalSlownessFraction(t *testing.T) {
	const (
		fraction  = hedgeBudgetFraction
		burst     = hedgeBudgetBurst
		primaries = 10000
	)
	// A frozen clock: no trickle, so the bound is pure.
	fe := New(Config{HedgeDelay: time.Millisecond, ProbeInterval: -1, Clock: newFakeClock()})
	defer fe.Close()
	b := fe.budget
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

// TestHedgeBudgetRefillsOnTheFrontendClock: the budget a frontend runs
// trickles on Config.Clock, so advancing that clock alone refills it.
func TestHedgeBudgetRefillsOnTheFrontendClock(t *testing.T) {
	clk := newFakeClock()
	fe := New(Config{HedgeDelay: time.Millisecond, ProbeInterval: -1, Clock: clk})
	defer fe.Close()
	if !fe.budget.take(hedgeBudgetBurst) || fe.budget.take(1) {
		t.Fatal("the budget did not start at its burst")
	}
	clk.Advance(time.Duration(float64(time.Second) / hedgeBudgetFraction)) // one token
	if !fe.budget.take(1) {
		t.Fatal("advancing the frontend's clock did not refill its hedge budget")
	}
}

// TestPerNodeHedgeDelay: a node that is legitimately slow (large arc)
// must be judged against its own latency history once it has enough
// samples, instead of the fleet-wide quantile that would hedge its
// every sub-query. Below the sample floor the global distribution
// still applies.
func TestPerNodeHedgeDelay(t *testing.T) {
	fe := New(Config{HedgeDelay: minHedgeDelay, ProbeInterval: -1})
	defer fe.Close()
	fast, slow, cold := ring.NodeID(1), ring.NodeID(2), ring.NodeID(3)
	// The large-arc node consistently takes 50ms...
	for i := 0; i < latWarmup; i++ {
		fe.observeLatency(slow, 50*time.Millisecond)
	}
	// ...while the fleet is fast: 2ms samples fill the global ring, so
	// its quantile is the fleet's.
	for i := 0; i < 512; i++ {
		fe.observeLatency(fast, 2*time.Millisecond)
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
			fe := New(Config{HedgeDelay: time.Microsecond, ProbeInterval: -1})
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

// TestPerNodeTrackerRegressionVsGlobal: with a fleet-dominated global
// distribution, the slow node's OWN quantile decides once it has
// latWarmup samples, so a primary at its typical latency is not hedged.
// (A hedgeDelay that ignored the node would sit near the fleet's 2ms —
// every 50ms sub-query hedged.)
func TestPerNodeTrackerRegressionVsGlobal(t *testing.T) {
	fe := New(Config{HedgeDelay: minHedgeDelay, ProbeInterval: -1})
	defer fe.Close()
	slow := ring.NodeID(7)
	for i := 0; i < latWarmup-1; i++ {
		fe.observeLatency(slow, 50*time.Millisecond)
	}
	for i := 0; i < 512; i++ {
		fe.observeLatency(ring.NodeID(1), 2*time.Millisecond)
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

// TestHedgeDelayFloorAndOff: HedgeDelay 0 turns hedging off whatever
// the latency history says, and any other value is the delay's floor:
// a fleet far faster than it adapts the delay no lower.
func TestHedgeDelayFloorAndOff(t *testing.T) {
	for _, tc := range []struct {
		name  string
		floor time.Duration
		want  time.Duration
	}{
		{"off", 0, 0},
		{"floor above the fleet", 20 * time.Millisecond, 20 * time.Millisecond},
		{"fleet above the floor", minHedgeDelay, 2 * time.Millisecond},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fe := New(Config{HedgeDelay: tc.floor, ProbeInterval: -1})
			defer fe.Close()
			for i := 0; i < 512; i++ {
				fe.observeLatency(ring.NodeID(i%8), 2*time.Millisecond)
			}
			for id := ring.NodeID(0); id < 9; id++ { // 8 warm nodes and a cold one
				if d := fe.hedgeDelay(id); d != tc.want {
					t.Fatalf("node %d: hedge delay %v, want %v", id, d, tc.want)
				}
			}
		})
	}
}
