package frontend

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/index"
	"roar/internal/pps"
	"roar/internal/proto"
	"roar/internal/ring"
)

func (fn *fakeNode) setGate(gate chan struct{}) {
	fn.mu.Lock()
	fn.gate = gate
	fn.mu.Unlock()
}

// legsRunning counts the sub-queries inside the bed's handlers now.
func (b *optBed) legsRunning() int {
	n := 0
	for _, fn := range b.nodes {
		fn.mu.Lock()
		n += fn.running
		fn.mu.Unlock()
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitIdle fails unless the frontend ends up holding nothing on any
// node: no outstanding work, no credit, no call registered on a
// connection. It polls because a credit waiter that loses the race with
// its query's return gives its credit back a moment after Query does.
func (b *optBed) waitIdle(t *testing.T, when string) {
	t.Helper()
	held := func() string {
		b.fe.mu.RLock()
		defer b.fe.mu.RUnlock()
		for id, h := range b.fe.nodes {
			_, out, _ := h.loadSnapshot()
			if reg := h.client.Stats().InFlight; math.Abs(out) > 1e-9 || len(h.credits) != 0 || reg != 0 {
				return fmt.Sprintf("node %d: outstanding %g, %d credits, %d registered calls", id, out, len(h.credits), reg)
			}
		}
		return ""
	}
	deadline := time.Now().Add(2 * time.Second)
	for msg := held(); msg != ""; msg = held() {
		if time.Now().After(deadline) {
			t.Fatalf("%s the frontend still holds, on %s", when, msg)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestFanoutGoroutinesPerQuery: a query is run by its own goroutine.
// With 16 queries of 8 legs stalled inside the nodes' handlers the
// process has grown by the 128 handlers and the 16 callers, not by a
// goroutine per leg; and whichever way a query ends (answered, a hedge
// that cancelled its loser, a SubQueryTimeout, a cancelled caller) it
// leaves no outstanding work, credit or registered call behind.
func TestFanoutGoroutinesPerQuery(t *testing.T) {
	t.Run("stalled fan-out", func(t *testing.T) {
		const n, queries = 8, 16
		b := newOptBed(t, n, n, Config{ProbeInterval: -1})
		b.query(t, optSpec) // every connection is dialled: its goroutines are in the baseline
		gate := make(chan struct{})
		for _, fn := range b.nodes {
			fn.setGate(gate)
		}
		base := runtime.NumGoroutine()
		var wg sync.WaitGroup
		for i := 0; i < queries; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if res, err := b.fe.Query(context.Background(), optSpec); err != nil || len(res.IDs) != n {
					t.Errorf("stalled query: %d ids, err %v", len(res.IDs), err)
				}
			}()
		}
		waitFor(t, "every leg to reach its node", func() bool { return b.legsRunning() == n*queries })
		grew := runtime.NumGoroutine() - base
		close(gate)
		wg.Wait()
		if most := n*queries + queries + 4; grew > most {
			t.Errorf("%d queries of %d stalled legs grew the process by %d goroutines, want at most %d (the handlers and the callers)",
				queries, n, grew, most)
		}
		b.waitIdle(t, "after the fan-out")
	})
	t.Run("hedge cancels its loser", func(t *testing.T) {
		b := newOptBed(t, 8, 4, Config{PQ: 8, HedgeDelay: 10 * time.Millisecond, ProbeInterval: -1})
		b.nodes[0].set(300*time.Millisecond, 0)
		if res := b.query(t, optSpec); res.HedgeWins == 0 {
			t.Fatalf("the slow primary was not hedged away: %+v", res)
		}
		b.waitIdle(t, "after a hedge win")
	})
	t.Run("sub-query timeout", func(t *testing.T) {
		b := newOptBed(t, 8, 4, Config{PQ: 8, SubQueryTimeout: 30 * time.Millisecond, ProbeInterval: -1})
		b.nodes[0].set(time.Second, 0)
		if res := b.query(t, optSpec); res.Failures == 0 {
			t.Fatalf("the stalled leg did not time out: %+v", res)
		}
		b.waitIdle(t, "after a sub-query timeout")
	})
	t.Run("caller cancels", func(t *testing.T) {
		const n = 8
		b := newOptBed(t, n, n, Config{NodeMaxOutstanding: 1, ProbeInterval: -1})
		gate := make(chan struct{})
		defer close(gate)
		for _, fn := range b.nodes {
			fn.setGate(gate)
		}
		ctx, cancel := context.WithCancel(context.Background())
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ { // one credit per node: the second query's legs wait for theirs
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := b.fe.Query(ctx, optSpec); !errors.Is(err, context.Canceled) {
					t.Errorf("cancelled query returned %v", err)
				}
			}()
		}
		waitFor(t, "one leg per credit to reach its node", func() bool { return b.legsRunning() == n })
		cancel()
		wg.Wait()
		b.waitIdle(t, "after a caller cancel")
	})
}

// slowNodeBed is eight real nodes at p = 8, so every query has one leg
// on each, behind a frontend whose hedge delay adapts; node slow answers
// every leg delay late.
func slowNodeBed(t *testing.T, slow int, delay time.Duration, clk clock.Clock) *Frontend {
	t.Helper()
	v, nodes := testView(t, slimEncoder(), 8, 8)
	nodes[slow].SetDelay(delay)
	fe := New(Config{HedgeDelay: time.Millisecond, ProbeInterval: -1, Clock: clk})
	t.Cleanup(fe.Close)
	if err := fe.ApplyView(v); err != nil {
		t.Fatal(err)
	}
	return fe
}

// TestLatencyAttributedToServingNode: every sample a leg produces (the
// speed estimate, the per-node latency history the hedge delay reads)
// reaches the node that served it. Frame ids are per connection pool
// and collide across nodes, so a completion matched to its leg by id
// would charge the slow node's samples to the others.
func TestLatencyAttributedToServingNode(t *testing.T) {
	const slow, delay = 3, 3 * time.Millisecond
	fe := slowNodeBed(t, slow, delay, nil)
	q, _ := slimEncoder().EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i < 150; i++ {
		if res, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil || res.SubQueries != 8 {
			t.Fatalf("query %d: %d sub-queries, err %v", i, res.SubQueries, err)
		}
	}
	speeds := fe.SpeedEstimates()
	for id, sp := range speeds {
		if id != slow && sp < 2*speeds[slow] {
			t.Errorf("node %d's speed estimate %.1f is not clear of the slow node's %.1f", id, sp, speeds[slow])
		}
	}
	for id := 0; id < 8; id++ {
		p50 := fe.nodeTracker(ring.NodeID(id)).quantile(0.5)
		if id == slow && p50 < delay {
			t.Errorf("slow node's median sample %v is under its %v delay", p50, delay)
		}
		if id != slow && p50 >= delay {
			t.Errorf("node %d's median sample %v carries the slow node's delay", id, p50)
		}
	}
	if s, f := fe.hedgeDelay(slow), fe.hedgeDelay(0); s <= f {
		t.Errorf("hedge delay of the slow node %v is not above a fast node's %v", s, f)
	}
}

// stallClock is the wall clock, except that every reading made outside
// a connection's read loop stalls first.
type stallClock struct{ clock.Clock }

const stall = 2 * time.Millisecond

func (c stallClock) Now() time.Time {
	var pcs [24]uintptr
	frames := runtime.CallersFrames(pcs[:runtime.Callers(1, pcs[:])])
	for {
		fr, more := frames.Next()
		if strings.HasSuffix(fr.Function, ".readLoop") {
			return c.Clock.Now()
		}
		if !more {
			break
		}
	}
	time.Sleep(stall)
	return c.Clock.Now()
}

// TestLatencyRunsToArrival: a leg's sample ends when its response
// arrives, not when the gather loop gets round to it. The frontend's
// clock stalls every reading made outside a connection's read loop, so
// the query goroutine starts its legs 2 ms apart and reads the first
// answers long after they came in; a sample measured at the gather would
// carry those stalls.
func TestLatencyRunsToArrival(t *testing.T) {
	fe := slowNodeBed(t, 0, 0, stallClock{clock.Real})
	q, _ := slimEncoder().EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	for i := 0; i <= latWarmup; i++ {
		if _, err := fe.Query(context.Background(), QuerySpec{Enc: q}); err != nil {
			t.Fatal(err)
		}
	}
	for id := 0; id < 8; id++ {
		if p50 := fe.nodeTracker(ring.NodeID(id)).quantile(0.5); p50 == 0 || p50 >= stall {
			t.Errorf("node %d's median sample %v includes the gather loop's %v stalls", id, p50, stall)
		}
	}
}

// TestSubQueryTimeoutRunsOnTheClock: the §4.8 failure timer runs on the
// frontend's clock. At PQ 2 over two nodes each owns one leg; node 0
// takes its leg and never answers. The leg is not failed before the
// clock passes SubQueryTimeout, and once it has, the leg fails and its
// arc is re-placed on node 1, with no real time waited out. A real 5 s
// guard fails the test rather than letting it hang.
func TestSubQueryTimeoutRunsOnTheClock(t *testing.T) {
	const timeout = time.Minute
	clk := clock.NewFake(time.Unix(1e9, 0))
	b := newOptBed(t, 2, 1, Config{PQ: 2, SubQueryTimeout: timeout, ProbeInterval: -1, Clock: clk})
	gate := make(chan struct{})
	defer close(gate)
	b.nodes[0].setGate(gate)
	type outcome struct {
		res Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, err := b.fe.Query(context.Background(), optSpec)
		done <- outcome{res, err}
	}()
	held := b.nodes[0]
	waitFor(t, "node 0 to hold its leg", func() bool {
		held.mu.Lock()
		defer held.mu.Unlock()
		return held.running == 1
	})
	clk.Advance(timeout - time.Millisecond)
	select {
	case o := <-done:
		t.Fatalf("the query ended before its leg's SubQueryTimeout: %+v, %v", o.res, o.err)
	default:
	}
	clk.Advance(time.Millisecond)
	select {
	case o := <-done:
		if o.err != nil || o.res.Failures != 1 || len(o.res.IDs) != 1 || o.res.IDs[0] != 1 {
			t.Fatalf("want node 0's leg failed and answered by node 1, got %+v, %v", o.res, o.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the leg was not failed once the clock passed its SubQueryTimeout")
	}
	if got := failedNodes(b.fe); len(got) != 1 || got[0] != 0 {
		t.Errorf("suspected nodes %v, want [0]", got)
	}
}

// fanoutBed is eight in-process nodes serving a roaring index behind
// loopback wire at p = 8, and the plain uncached query the count gate
// and the benchmark send through it.
func fanoutBed(tb testing.TB) (*Frontend, QuerySpec) {
	tb.Helper()
	v, nodes := testView(tb, slimEncoder(), 8, 8)
	corpus := plainCorpus(rand.New(rand.NewSource(7)), 2000)
	for _, nd := range nodes {
		b := index.NewBuilder()
		for id, terms := range corpus {
			b.Add(id, terms...)
		}
		ix := index.New(0)
		ix.AddSegment(b.Build("fanout"))
		nd.SetIndex(ix)
	}
	fe := New(Config{ProbeInterval: -1})
	tb.Cleanup(fe.Close)
	if err := fe.ApplyView(v); err != nil {
		tb.Fatal(err)
	}
	spec := QuerySpec{
		Plain:        &proto.PlainQuery{Terms: []string{"alpha", "beta"}, Mode: uint8(index.ModeAnd), Limit: 20},
		CacheControl: proto.CacheBypass,
	}
	for i := 0; i < 16; i++ { // dial, fill the buffer pools, grow the stacks
		if res, err := fe.Query(context.Background(), spec); err != nil || res.SubQueries != 8 || len(res.IDs) != 20 {
			tb.Fatalf("warm-up query: %d sub-queries, %d ids, err %v", res.SubQueries, len(res.IDs), err)
		}
	}
	return fe, spec
}

// BenchmarkFanout8 is the in-package profiling target for the per-leg
// fixed cost (go test -run '^$' -bench Fanout8 -cpuprofile ...).
func BenchmarkFanout8(b *testing.B) {
	fe, spec := fanoutBed(b)
	b.ReportAllocs()
	for b.Loop() {
		if _, err := fe.Query(context.Background(), spec); err != nil {
			b.Fatal(err)
		}
	}
}
