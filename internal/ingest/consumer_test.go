package ingest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"roar/internal/clock"
	"roar/internal/pps"
)

// fastClock fires every timer at once: backoff sleeps collapse, so
// retry loops spin instead of waiting out real time.
type fastClock struct{ *clock.Fake }

func (c fastClock) NewTimer(time.Duration) clock.Timer { return c.Fake.NewTimer(0) }

var fast = fastClock{clock.NewFake(time.Time{})}

// sink is one delivery target that records what it received and can be
// told to fail.
type sink struct {
	mu    sync.Mutex
	recs  []pps.Encoded
	calls int
	fail  bool
}

func (s *sink) push(_ context.Context, recs []pps.Encoded) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.calls++
	if s.fail {
		return errors.New("sink down")
	}
	s.recs = append(s.recs, recs...)
	return nil
}

func (s *sink) setFail(v bool) {
	s.mu.Lock()
	s.fail = v
	s.mu.Unlock()
}

// ids returns the set of delivered record IDs and the total delivery
// count (>= set size under retries — at-least-once).
func (s *sink) ids() (map[uint64]int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := map[uint64]int{}
	for _, r := range s.recs {
		m[r.ID]++
	}
	return m, len(s.recs)
}

func openTestWAL(t *testing.T) *WAL {
	t.Helper()
	w, err := Open(t.TempDir(), Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

func staticRoute(targets ...Target) Route {
	return perRecord(func(int) []Target { return targets })
}

// perRecord is a Route that asks owners for the targets of each record
// of the batch in turn.
func perRecord(owners func(i int) []Target) Route {
	return func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		for i := range batch {
			for _, t := range owners(i) {
				dst = append(dst, Placement{Rec: i, Target: t})
			}
		}
		return dst, nil
	}
}

func waitDrained(t *testing.T, c *Consumer, seq uint64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.WaitDrained(ctx, seq); err != nil {
		t.Fatalf("drain never reached %d (at %d): %v", seq, c.Drained(), err)
	}
}

func TestConsumerDrainsToAllTargets(t *testing.T) {
	w := openTestWAL(t)
	a, b := &sink{}, &sink{}
	c := NewConsumer(w, ConsumerConfig{
		Route: staticRoute(Target{Key: "a", Push: a.push}, Target{Key: "b", Push: b.push}),
		Clock: fast,
	})
	recs := testRecs(21, 30)
	seq, err := w.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, seq)
	for name, s := range map[string]*sink{"a": a, "b": b} {
		got, _ := s.ids()
		if len(got) != len(recs) {
			t.Fatalf("target %s got %d distinct records, want %d", name, len(got), len(recs))
		}
	}
	// Records appended AFTER the drain caught up are picked up via the
	// notify channel, not just the initial backlog.
	seq, err = w.Append(testRecs(22, 5)...)
	if err != nil {
		t.Fatal(err)
	}
	waitDrained(t, c, seq)
	got, _ := a.ids()
	if len(got) != 35 {
		t.Fatalf("post-catch-up append not drained: %d distinct records", len(got))
	}
}

// TestConsumerPartialFailureSkipsAckedTargets: with one target down,
// the watermark must hold and the healthy target must NOT be re-pushed
// on every retry (acked offsets latch). When the sick target recovers,
// the batch completes and the watermark advances.
func TestConsumerPartialFailureSkipsAckedTargets(t *testing.T) {
	w := openTestWAL(t)
	healthy, sick := &sink{}, &sink{}
	sick.setFail(true)
	c := NewConsumer(w, ConsumerConfig{
		Route: staticRoute(Target{Key: "h", Push: healthy.push}, Target{Key: "s", Push: sick.push}),
		Clock: fast,
	})
	seq, err := w.Append(testRecs(23, 4)...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()

	// Let retries accumulate against the sick target.
	deadline := time.Now().Add(10 * time.Second)
	for {
		sick.mu.Lock()
		calls := sick.calls
		sick.mu.Unlock()
		if calls >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sick target never saw retries")
		}
		time.Sleep(time.Millisecond)
	}
	if got := c.Drained(); got != 0 {
		t.Fatalf("watermark advanced to %d with a target down", got)
	}
	healthy.mu.Lock()
	healthyCalls := healthy.calls
	healthy.mu.Unlock()
	if healthyCalls != 1 {
		t.Fatalf("healthy target pushed %d times during retries, want exactly 1 (acked skip)", healthyCalls)
	}

	sick.setFail(false)
	waitDrained(t, c, seq)
	got, total := sick.ids()
	if len(got) != 4 {
		t.Fatalf("recovered target got %d distinct records, want 4", len(got))
	}
	if total < 4 {
		t.Fatalf("recovered target total deliveries %d < 4", total)
	}
}

// TestConsumerReroutesToReplacement is the decommission-replay property
// in miniature: a batch stalled on a dead target drains completely the
// moment the route stops naming it — no special replay path.
func TestConsumerReroutesToReplacement(t *testing.T) {
	w := openTestWAL(t)
	dead, repl := &sink{}, &sink{}
	dead.setFail(true)
	var mu sync.Mutex
	target := Target{Key: "old", Push: dead.push}
	route := func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		mu.Lock()
		defer mu.Unlock()
		return staticRoute(target)(dst, batch)
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, Clock: fast})
	recs := testRecs(24, 6)
	seq, err := w.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	deadline := time.Now().Add(10 * time.Second)
	for {
		dead.mu.Lock()
		calls := dead.calls
		dead.mu.Unlock()
		if calls >= 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("dead target never attempted")
		}
		time.Sleep(time.Millisecond)
	}
	// "Decommission": the next route resolution names the replacement.
	mu.Lock()
	target = Target{Key: "new", Push: repl.push}
	mu.Unlock()
	waitDrained(t, c, seq)
	got, _ := repl.ids()
	if len(got) != len(recs) {
		t.Fatalf("replacement got %d distinct records, want %d", len(got), len(recs))
	}
}

// TestConsumerRouteFlipsInsideAttempt: one attempt's routing can place
// the records of a batch on different owners, as when a decommission
// moved only part of the batch's arc. The replacement then takes only
// the tail of the batch; its success must not let the retry skip it for
// the head. Deterministic: the first attempt names the dead target for
// records 0-2 and the replacement for 3-5, every later one the
// replacement for all.
func TestConsumerRouteFlipsInsideAttempt(t *testing.T) {
	w := openTestWAL(t)
	dead, repl := &sink{}, &sink{}
	dead.setFail(true)
	var mu sync.Mutex
	attempts := 0
	oldT, newT := Target{Key: "old", Push: dead.push}, Target{Key: "new", Push: repl.push}
	route := func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		mu.Lock()
		attempts++
		first := attempts == 1
		mu.Unlock()
		return perRecord(func(i int) []Target {
			if first && i <= 2 {
				return []Target{oldT}
			}
			return []Target{newT}
		})(dst, batch)
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, Clock: fast})
	recs := testRecs(29, 6)
	seq, err := w.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, seq)
	got, total := repl.ids()
	if len(got) != len(recs) {
		t.Fatalf("watermark %d covers %d records but the replacement holds %d: %v", seq, len(recs), len(got), got)
	}
	// And what it took on the first attempt was not pushed again.
	if total != len(recs) {
		t.Fatalf("replacement received %d deliveries of %d records, want each exactly once", total, len(recs))
	}
}

func TestConsumerResumeSkipsDrainedPrefix(t *testing.T) {
	w := openTestWAL(t)
	s := &sink{}
	if _, err := w.Append(testRecs(25, 10)...); err != nil {
		t.Fatal(err)
	}
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push}), Clock: fast})
	c.Start(7) // watermark restored from replicated state
	defer c.Stop()
	waitDrained(t, c, 10)
	got, _ := s.ids()
	if len(got) != 3 {
		t.Fatalf("resume from 7 delivered %d records, want 3", len(got))
	}
}

func TestConsumerStopWhileRetrying(t *testing.T) {
	w := openTestWAL(t)
	s := &sink{}
	s.setFail(true)
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push}), Clock: fast})
	if _, err := w.Append(testRecs(26, 2)...); err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	done := make(chan struct{})
	go func() {
		c.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Stop hung while the consumer was retrying")
	}
	// And waiters are released, not stranded.
	if err := c.WaitDrained(context.Background(), 99); err == nil {
		t.Fatal("WaitDrained returned nil after Stop")
	}
}

// TestConsumerOnAdvanceObservesWatermark: OnAdvance sees every advance,
// in order, and has seen one before WaitDrained returns on it (views
// carry what it records to the frontends' cache fences).
func TestConsumerOnAdvanceObservesWatermark(t *testing.T) {
	w := openTestWAL(t)
	s := &sink{}
	var mu sync.Mutex
	var advances []uint64
	c := NewConsumer(w, ConsumerConfig{
		Route:     staticRoute(Target{Key: "s", Push: s.push}),
		BatchSize: 2,
		Clock:     fast,
		OnAdvance: func(d uint64) {
			mu.Lock()
			advances = append(advances, d)
			mu.Unlock()
		},
	})
	seq, err := w.Append(testRecs(27, 6)...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, seq)
	mu.Lock()
	defer mu.Unlock()
	if len(advances) == 0 || advances[len(advances)-1] != seq {
		t.Fatalf("OnAdvance saw %v, want final %d", advances, seq)
	}
	for i := 1; i < len(advances); i++ {
		if advances[i] <= advances[i-1] {
			t.Fatalf("OnAdvance not monotonic: %v", advances)
		}
	}
}

// TestConsumerRouteErrorRetries: a routing failure (no live owners yet)
// holds the batch rather than dropping it.
func TestConsumerRouteErrorRetries(t *testing.T) {
	w := openTestWAL(t)
	s := &sink{}
	var mu sync.Mutex
	ready := false
	route := func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		mu.Lock()
		defer mu.Unlock()
		if !ready {
			return dst, fmt.Errorf("no owners yet")
		}
		return staticRoute(Target{Key: "s", Push: s.push})(dst, batch)
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, Clock: fast})
	seq, err := w.Append(testRecs(28, 3)...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	time.Sleep(5 * time.Millisecond)
	if got := c.Drained(); got != 0 {
		t.Fatalf("watermark advanced to %d while routing failed", got)
	}
	mu.Lock()
	ready = true
	mu.Unlock()
	waitDrained(t, c, seq)
	got, _ := s.ids()
	if len(got) != 3 {
		t.Fatalf("delivered %d records after routing recovered, want 3", len(got))
	}
}

// TestDrainRoutesOncePerAttempt pins the drain's routing cost and the
// order of what it pushes: a 256-record batch is routed by exactly one
// Route call per delivery attempt, and every push is strictly ascending
// by id and carries the last write of an id the batch repeats.
func TestDrainRoutesOncePerAttempt(t *testing.T) {
	w := openTestWAL(t)
	recs := testRecs(30, 250)
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 6; i++ {
		recs = append(recs, testRec(rng, recs[7*i].ID)) // rewrites
	}
	last := map[uint64]pps.Encoded{}
	for _, r := range recs {
		last[r.ID] = r
	}
	var mu sync.Mutex
	routes, failures := 0, 2
	var pushes [][]pps.Encoded
	push := func(_ context.Context, got []pps.Encoded) error {
		mu.Lock()
		defer mu.Unlock()
		pushes = append(pushes, slices.Clone(got))
		if failures > 0 {
			failures--
			return errors.New("target down")
		}
		return nil
	}
	route := func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		mu.Lock()
		routes++
		mu.Unlock()
		return staticRoute(Target{Key: "a", Push: push})(dst, batch)
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, BatchSize: 256, Clock: fast})
	seq, err := w.Append(recs...)
	if err != nil {
		t.Fatal(err)
	}
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, seq)
	mu.Lock()
	defer mu.Unlock()
	if routes != 3 || len(pushes) != 3 {
		t.Fatalf("3 attempts of one %d-record batch made %d Route calls and %d pushes, want 3 and 3", len(recs), routes, len(pushes))
	}
	for n, got := range pushes {
		if len(got) != len(last) {
			t.Fatalf("push %d carried %d records, want the %d distinct ids", n, len(got), len(last))
		}
		for i, r := range got {
			if i > 0 && got[i-1].ID >= r.ID {
				t.Fatalf("push %d is not strictly ascending at %d: %d then %d", n, i, got[i-1].ID, r.ID)
			}
			if !bytes.Equal(r.Filter, last[r.ID].Filter) {
				t.Fatalf("push %d carries a superseded write of record %d", n, r.ID)
			}
		}
	}
}

// TestConsumerDefaultRoundCap pins the default round cap by exact
// counts: 2 500 records appended before the drain starts are a backlog,
// and ConsumerConfig{} drains it in rounds of 1 024, 1 024 and 452.
func TestConsumerDefaultRoundCap(t *testing.T) {
	w := openTestWAL(t)
	seq, err := w.Append(testRecs(50, 2500)...)
	if err != nil {
		t.Fatal(err)
	}
	s := &sink{}
	var mu sync.Mutex
	var rounds []int
	route := func(dst []Placement, batch []pps.Encoded) ([]Placement, error) {
		mu.Lock()
		rounds = append(rounds, len(batch))
		mu.Unlock()
		return staticRoute(Target{Key: "s", Push: s.push})(dst, batch)
	}
	c := NewConsumer(w, ConsumerConfig{Route: route})
	c.Start(0)
	defer c.Stop()
	waitDrained(t, c, seq)
	mu.Lock()
	defer mu.Unlock()
	if !slices.Equal(rounds, []int{1024, 1024, 452}) {
		t.Fatalf("a 2 500-record backlog drained in Route calls of %v records, want [1024 1024 452]", rounds)
	}
	if got, n := s.ids(); len(got) != 2500 || n != 2500 {
		t.Fatalf("delivered %d records, %d distinct, want 2 500 once each", n, len(got))
	}
}
