package store

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"roar/internal/pps"
	"roar/internal/ring"
)

func testRecords(t testing.TB, n int) ([]pps.Encoded, *pps.Encoder) {
	t.Helper()
	// A slim encoding keeps test corpora cheap to build: encryption cost
	// itself is covered by the pps package tests.
	enc := pps.NewEncoder(pps.TestKey(1), pps.EncoderConfig{
		MaxKeywords: 4,
		MaxPathDir:  4,
		SizePoints:  pps.LinearPoints(0, 1000, 8),
		DateDays:    365,
		DateSpan:    10,
		RankBuckets: []int{1},
	})
	rng := rand.New(rand.NewSource(42))
	recs := make([]pps.Encoded, n)
	for i := range recs {
		kw := "even"
		if i%2 == 1 {
			kw = "odd"
		}
		doc := pps.Document{
			ID:       rng.Uint64(),
			Path:     "/data/f",
			Size:     100,
			Modified: time.Unix(1.2e9, 0),
			Keywords: []string{kw},
		}
		r, err := enc.EncryptDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		recs[i] = r
	}
	return recs, enc
}

func TestPointIDRoundTrip(t *testing.T) {
	for _, id := range []uint64{0, 1, 1 << 32, 1 << 63, math.MaxUint64} {
		p := PointOf(id)
		if p < 0 || p >= 1 {
			t.Fatalf("PointOf(%d) = %v out of [0,1)", id, p)
		}
	}
	// Monotonic: greater ids map to greater-or-equal points.
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		a, b := rng.Uint64(), rng.Uint64()
		if a > b {
			a, b = b, a
		}
		if PointOf(a) > PointOf(b) {
			t.Fatalf("PointOf not monotone at %d, %d", a, b)
		}
	}
	if IDOf(0) != 0 {
		t.Error("IDOf(0) should be 0")
	}
}

func TestInsertSortedUnique(t *testing.T) {
	s := New()
	recs, _ := testRecords(t, 100)
	s.Insert(recs...)
	if s.Len() != 100 {
		t.Fatalf("Len = %d", s.Len())
	}
	// Re-insert is idempotent (replace).
	s.Insert(recs[:50]...)
	if s.Len() != 100 {
		t.Fatalf("re-insert changed Len to %d", s.Len())
	}
	// Sorted invariant via InArc over the full circle.
	all := s.InArc(0.5, 0.5-1e-12)
	prev := uint64(0)
	for i, r := range all {
		if i > 0 && r.ID <= prev && PointOf(r.ID) > 0 {
			// wrap point resets ordering once; tolerate exactly one reset
			break
		}
		prev = r.ID
	}
}

func TestDeleteAndGet(t *testing.T) {
	s := New()
	recs, _ := testRecords(t, 20)
	s.Insert(recs...)
	if _, ok := s.Get(recs[3].ID); !ok {
		t.Fatal("Get should find inserted record")
	}
	s.Delete(recs[3].ID, recs[7].ID)
	if s.Len() != 18 {
		t.Fatalf("Len after delete = %d", s.Len())
	}
	if _, ok := s.Get(recs[3].ID); ok {
		t.Fatal("deleted record still present")
	}
	s.Delete(recs[3].ID) // absent: no-op
	if s.Len() != 18 {
		t.Fatal("deleting absent id changed Len")
	}
}

func TestInArcWrap(t *testing.T) {
	s := New()
	// Craft ids at known points: 0.1, 0.5, 0.9.
	for _, f := range []float64{0.1, 0.5, 0.9} {
		s.Insert(pps.Encoded{ID: IDOf(ring.Point(f))})
	}
	got := s.InArc(0.8, 0.2) // wrapping arc (0.8, 0.2]
	if len(got) != 2 {
		t.Fatalf("wrap arc matched %d records, want 2 (0.9 and 0.1)", len(got))
	}
	if n := s.CountArc(0.8, 0.2); n != 2 {
		t.Fatalf("CountArc = %d", n)
	}
	if n := s.CountArc(0.2, 0.8); n != 1 {
		t.Fatalf("CountArc(0.2,0.8) = %d, want 1 (0.5)", n)
	}
	// lo == hi is the full ring by the MatchSpan convention (pq = 1).
	if n := s.CountArc(0.3, 0.3); n != 3 {
		t.Fatalf("full-ring CountArc = %d, want 3", n)
	}
}

func TestInArcMatchesRingSemantics(t *testing.T) {
	s := New()
	recs, _ := testRecords(t, 300)
	s.Insert(recs...)
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 50; trial++ {
		lo := ring.Norm(rng.Float64())
		hi := lo.Add(rng.Float64() * 0.3)
		got := map[uint64]bool{}
		for _, r := range s.InArc(lo, hi) {
			got[r.ID] = true
		}
		for _, r := range recs {
			pt := PointOf(r.ID)
			d := lo.DistCW(pt)
			want := d > 0 && d <= lo.DistCW(hi)
			if got[r.ID] != want {
				t.Fatalf("record at %v in (%v,%v]: got %v want %v", pt, lo, hi, got[r.ID], want)
			}
		}
	}
}

func TestRetainStored(t *testing.T) {
	s := New()
	for f := 0.0; f < 1; f += 0.01 {
		s.Insert(pps.Encoded{ID: IDOf(ring.Norm(f + 0.001))})
	}
	n := s.Len()
	// Node range [0.5, 0.6), p = 5: stored set (0.3, 0.6) => 30 records.
	dropped := s.RetainStored(ring.NewArc(0.5, 0.1), 5)
	if s.Len()+dropped != n {
		t.Fatalf("dropped %d + kept %d != %d", dropped, s.Len(), n)
	}
	if s.Len() < 28 || s.Len() > 32 {
		t.Errorf("kept %d records, want ~30", s.Len())
	}
	// Stored set covering the whole ring drops nothing.
	s2 := New()
	s2.Insert(pps.Encoded{ID: 42})
	if d := s2.RetainStored(ring.NewArc(0, 0.5), 2); d != 0 {
		t.Errorf("full stored set dropped %d", d)
	}
}

func TestMatchArc(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 400)
	s.Insert(recs...)
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	if err != nil {
		t.Fatal(err)
	}
	for _, threads := range []int{1, 4} {
		ids, scanned, err := s.MatchArc(context.Background(), m, q, 0.5, 0.5-1e-9,
			MatchOptions{Threads: threads, BatchSize: 32})
		if err != nil {
			t.Fatal(err)
		}
		if scanned < 399 {
			t.Errorf("threads=%d scanned %d, want ~400", threads, scanned)
		}
		if len(ids) < 190 || len(ids) > 210 {
			t.Errorf("threads=%d matched %d, want ~200", threads, len(ids))
		}
	}
}

func TestMatchArcPartial(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 400)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	_, scanned, err := s.MatchArc(context.Background(), m, q, 0.0, 0.25, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if scanned < 60 || scanned > 140 {
		t.Errorf("quarter arc scanned %d, want ~100", scanned)
	}
}

func TestMatchArcCancellation(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 1000)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := s.MatchArc(ctx, m, q, 0.5, 0.4999, MatchOptions{}); err == nil {
		t.Error("cancelled context should surface an error")
	}
}

func TestMatchArcLimiter(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 200)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	var mu sync.Mutex
	limited := 0
	_, scanned, err := s.MatchArc(context.Background(), m, q, 0.5, 0.4999, MatchOptions{
		BatchSize: 50,
		Limiter: func(_ context.Context, n int) error {
			mu.Lock()
			limited += n
			mu.Unlock()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if limited != scanned {
		t.Errorf("limiter saw %d records, scanned %d", limited, scanned)
	}
}

// TestMatchArcLimiterCancellation: a context cancelled mid-throttle must
// abort the scan promptly instead of sleeping out the emulated time
// (the hedged-away sub-query regression this limiter signature fixes).
func TestMatchArcLimiterCancellation(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 400)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := s.MatchArc(ctx, m, q, 0.5, 0.4999, MatchOptions{
		BatchSize: 50,
		Limiter: func(ctx context.Context, n int) error {
			// An emulated scan so slow the full arc would take seconds.
			tm := time.NewTimer(250 * time.Millisecond)
			defer tm.Stop()
			select {
			case <-tm.C:
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		},
	})
	if err == nil {
		t.Fatal("cancelled scan should surface an error")
	}
	if el := time.Since(start); el > time.Second {
		t.Fatalf("cancelled scan took %v; limiter ignored the context", el)
	}
}

// TestMatchArcLimiterError: a limiter failure that is NOT a context
// cancellation must also surface — a partial scan must never return a
// nil error.
func TestMatchArcLimiterError(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 200)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	boom := errors.New("limiter exploded")
	calls := 0
	_, _, err := s.MatchArc(context.Background(), m, q, 0.5, 0.4999, MatchOptions{
		BatchSize: 50,
		Limiter: func(_ context.Context, n int) error {
			calls++
			if calls > 1 {
				return boom
			}
			return nil
		},
	})
	if !errors.Is(err, boom) {
		t.Fatalf("limiter error swallowed: got %v", err)
	}
}

// TestInsertBulkMerge: the batch merge path must agree with per-record
// insertion, including replacements and intra-batch duplicates.
func TestInsertBulkMerge(t *testing.T) {
	recs, _ := testRecords(t, 300)
	one, bulk := New(), New()
	// Pre-load half, one record at a time.
	for _, r := range recs[:150] {
		one.Insert(r)
		bulk.Insert(r)
	}
	// Second wave overlaps the first (replacements) and contains an
	// intra-batch duplicate ID with different payloads: last must win.
	wave := append([]pps.Encoded(nil), recs[100:]...)
	dup := recs[120]
	dup.Filter = append([]byte(nil), dup.Filter...)
	dup.Filter[0] ^= 0xff
	wave = append(wave, dup)
	for _, r := range wave {
		one.Insert(r)
	}
	bulk.Insert(wave...)
	if one.Len() != bulk.Len() {
		t.Fatalf("bulk Len=%d, per-record Len=%d", bulk.Len(), one.Len())
	}
	a := one.InArc(0.5, 0.5)
	b := bulk.InArc(0.5, 0.5)
	for i := range a {
		if a[i].ID != b[i].ID {
			t.Fatalf("record %d: bulk id %d != per-record id %d", i, b[i].ID, a[i].ID)
		}
		if string(a[i].Filter) != string(b[i].Filter) {
			t.Fatalf("record %d (id %d): bulk filter diverges from per-record", i, a[i].ID)
		}
	}
	got, ok := bulk.Get(dup.ID)
	if !ok || string(got.Filter) != string(dup.Filter) {
		t.Fatal("intra-batch duplicate: last write did not win")
	}
}

// TestInsertBulkFresh: bulk insert into an empty store.
func TestInsertBulkFresh(t *testing.T) {
	recs, _ := testRecords(t, 64)
	s := New()
	s.Insert(recs...)
	if s.Len() != 64 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, r := range recs {
		if _, ok := s.Get(r.ID); !ok {
			t.Fatalf("record %d missing after bulk insert", r.ID)
		}
	}
}

// BenchmarkInsertBatch contrasts the merge path against per-record
// insertion for a replica-push-sized batch.
func BenchmarkInsertBatch(b *testing.B) {
	recs, _ := testRecords(b, 5000)
	b.Run("per-record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New()
			for _, r := range recs {
				s.Insert(r)
			}
		}
	})
	b.Run("bulk", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s := New()
			s.Insert(recs...)
		}
	})
}

// TestConcurrentInsertAndMatch: writers of every kind race scans on a
// store whose key schedules are live (the first MatchArc below activates
// them, possibly mid-insert). Run under -race in CI; afterwards the
// schedules must still line up with the records.
func TestConcurrentInsertAndMatch(t *testing.T) {
	s := New()
	recs, enc := testRecords(t, 500)
	s.Insert(recs[:250]...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "odd"})
	var writers sync.WaitGroup
	writers.Add(3)
	go func() { // single inserts
		defer writers.Done()
		for _, r := range recs[250:400] {
			s.Insert(r)
		}
	}()
	go func() { // batch inserts, re-delivering some of the initial set
		defer writers.Done()
		for i := 400; i < 500; i += 20 {
			s.Insert(append(recs[i:i+20:i+20], recs[i-400:i-390]...)...)
		}
	}()
	go func() { // deletes, then the same records back
		defer writers.Done()
		for i := 0; i < 100; i += 10 {
			s.Delete(recs[i].ID)
			s.Delete(recs[i+1].ID, recs[i+2].ID, recs[i+3].ID)
			s.Insert(recs[i : i+4]...)
		}
	}()
	for i := 0; i < 20; i++ {
		if _, _, err := s.MatchArc(context.Background(), m, q, 0.5, 0.4999, MatchOptions{Threads: 2}); err != nil {
			t.Fatal(err)
		}
	}
	writers.Wait()
	if s.Len() != 500 {
		t.Fatalf("Len = %d after concurrent writes", s.Len())
	}
	checkScheduleInvariants(t, s, "after concurrent writes")
	got, _, err := s.MatchArc(context.Background(), m, q, 0, 0, MatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	want := m.MatchAll(q, s.InArc(0, 0))
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("scheduled scan found %d ids, unscheduled matcher %d", len(got), len(want))
	}
}

func TestSaveLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.dat")
	recs, _ := testRecords(t, 150)
	if err := SaveFile(path, recs); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFile(context.Background(), path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(recs) {
		t.Fatalf("loaded %d records, want %d", len(back), len(recs))
	}
	for i := range recs {
		if back[i].ID != recs[i].ID {
			t.Fatalf("record %d id mismatch", i)
		}
	}
}

func TestStoreSaveToLoadFrom(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.dat")
	s := New()
	recs, _ := testRecords(t, 80)
	s.Insert(recs...)
	if err := s.SaveTo(path); err != nil {
		t.Fatal(err)
	}
	s2 := New()
	if err := s2.LoadFrom(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 80 {
		t.Fatalf("loaded store has %d records", s2.Len())
	}
	// Replacing the contents of a store that has been scanned replaces
	// its key schedules with them.
	s.Delete(recs[0].ID)
	s.activateSchedules()
	if err := s.LoadFrom(context.Background(), path); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 80 {
		t.Fatalf("reloaded store has %d records", s.Len())
	}
	checkScheduleInvariants(t, s, "after LoadFrom")
}

func TestMatchFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "meta.dat")
	recs, enc := testRecords(t, 400)
	if err := SaveFile(path, recs); err != nil {
		t.Fatal(err)
	}
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "even"})
	ids, scanned, err := MatchFile(context.Background(), path, m, q, MatchOptions{Threads: 2})
	if err != nil {
		t.Fatal(err)
	}
	if scanned != 400 {
		t.Errorf("scanned %d, want 400", scanned)
	}
	if len(ids) < 190 || len(ids) > 210 {
		t.Errorf("matched %d, want ~200", len(ids))
	}
	if _, _, err := MatchFile(context.Background(), filepath.Join(dir, "absent"), m, q, MatchOptions{}); err == nil {
		t.Error("missing file should error")
	}
}

func BenchmarkMatchArcInMemory(b *testing.B) {
	s := New()
	recs, enc := testRecords(b, 5000)
	s.Insert(recs...)
	m, _ := pps.NewMatcher(enc.ServerParams())
	q, _ := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "nonexistent"})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := s.MatchArc(context.Background(), m, q, 0.5, 0.4999, MatchOptions{Threads: 4}); err != nil {
			b.Fatal(err)
		}
	}
}
