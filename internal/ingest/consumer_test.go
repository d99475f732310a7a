package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"roar/internal/pps"
)

// fastAfter collapses backoff sleeps so retry loops spin instead of
// waiting out real time.
func fastAfter(time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	ch <- time.Time{}
	return ch
}

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
	return func(pps.Encoded) ([]Target, error) { return targets, nil }
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
		After: fastAfter,
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
		After: fastAfter,
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
	route := func(pps.Encoded) ([]Target, error) {
		mu.Lock()
		defer mu.Unlock()
		return []Target{target}, nil
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, After: fastAfter})
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

// TestConsumerRouteFlipsInsideAttempt: routes are resolved per record,
// so a decommission can land between two records of one attempt. The
// replacement then takes only the tail of the batch; its success must
// not let the retry skip it for the head. Deterministic: the route names
// the dead target for exactly the first three resolutions.
func TestConsumerRouteFlipsInsideAttempt(t *testing.T) {
	w := openTestWAL(t)
	dead, repl := &sink{}, &sink{}
	dead.setFail(true)
	var mu sync.Mutex
	resolutions := 0
	route := func(pps.Encoded) ([]Target, error) {
		mu.Lock()
		defer mu.Unlock()
		resolutions++
		if resolutions <= 3 {
			return []Target{{Key: "old", Push: dead.push}}, nil
		}
		return []Target{{Key: "new", Push: repl.push}}, nil
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, After: fastAfter})
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
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push}), After: fastAfter})
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
	c := NewConsumer(w, ConsumerConfig{Route: staticRoute(Target{Key: "s", Push: s.push}), After: fastAfter})
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

func TestConsumerOnAdvanceObservesWatermark(t *testing.T) {
	w := openTestWAL(t)
	s := &sink{}
	var mu sync.Mutex
	var advances []uint64
	c := NewConsumer(w, ConsumerConfig{
		Route:     staticRoute(Target{Key: "s", Push: s.push}),
		BatchSize: 2,
		After:     fastAfter,
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
	route := func(pps.Encoded) ([]Target, error) {
		mu.Lock()
		defer mu.Unlock()
		if !ready {
			return nil, fmt.Errorf("no owners yet")
		}
		return []Target{{Key: "s", Push: s.push}}, nil
	}
	c := NewConsumer(w, ConsumerConfig{Route: route, After: fastAfter})
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
