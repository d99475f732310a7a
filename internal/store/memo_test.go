package store

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"roar/internal/pps"
	"roar/internal/ring"
)

// memoWorld is what the memo tests share: encrypted metadata that does
// ("even") and does not ("odd") match queries[0], enough queries that
// keys get reused and evicted, and identifiers chosen to crowd a few
// ring buckets, sit on bucket edges and sit at the ends of the id space.
type memoWorld struct {
	m       *pps.Matcher
	queries []pps.Query
	meta    []pps.Encoded // metadata only; rec stamps an id on one
	ids     []uint64
}

func newMemoWorld(t testing.TB) *memoWorld {
	meta, enc := testRecords(t, 32)
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	w := &memoWorld{m: m, meta: meta}
	// Every single word and every ordered pair under both operators: more
	// keys than a small budget holds, answers from none to all records.
	words := []string{"even", "odd", "absent"}
	add := func(op pps.BoolOp, ws ...string) {
		preds := make([]pps.Predicate, len(ws))
		for i, word := range ws {
			preds[i] = pps.Predicate{Kind: pps.Keyword, Word: word}
		}
		q, err := enc.EncryptQuery(op, preds...)
		if err != nil {
			t.Fatal(err)
		}
		w.queries = append(w.queries, q)
	}
	for _, a := range words {
		add(pps.And, a)
		for _, b := range words {
			if a != b {
				add(pps.And, a, b)
				add(pps.Or, a, b)
			}
		}
	}
	rng := rand.New(rand.NewSource(7))
	w.ids = []uint64{0, 1, math.MaxUint64, math.MaxUint64 - 1}
	for _, b := range []uint64{0, 1, 2, 255, 256, 257, 511, 512, 700, 1022, 1023} {
		w.ids = append(w.ids, b<<bucketShift, b<<bucketShift+1, (b+1)<<bucketShift-1)
		for i := 0; i < 6; i++ {
			w.ids = append(w.ids, b<<bucketShift+rng.Uint64()>>bucketBits)
		}
	}
	for i := 0; i < 40; i++ {
		w.ids = append(w.ids, rng.Uint64())
	}
	return w
}

// rec is a record for a random id of the world carrying random metadata,
// so an overwrite flips a record between matching and not matching.
func (w *memoWorld) rec(rng *rand.Rand) pps.Encoded {
	r := w.meta[rng.Intn(len(w.meta))]
	r.ID = w.ids[rng.Intn(len(w.ids))]
	return r
}

func (w *memoWorld) recs(rng *rand.Rand, n int) []pps.Encoded {
	out := make([]pps.Encoded, n)
	for i := range out {
		out[i] = w.rec(rng)
	}
	return out
}

// arc draws a match arc: the full ring, two random points (wrapping half
// the time), or an arc that starts and ends on records of the world, so
// it clips the buckets at its ends and is often narrower than one.
func (w *memoWorld) arc(rng *rand.Rand) (lo, hi ring.Point) {
	switch rng.Intn(4) {
	case 0:
		lo = ring.Point(rng.Float64())
		return lo, lo
	case 1:
		return PointOf(w.ids[rng.Intn(len(w.ids))]), PointOf(w.ids[rng.Intn(len(w.ids))])
	default:
		return ring.Point(rng.Float64()), ring.Point(rng.Float64())
	}
}

// checkMemoLookup runs one memoized lookup and holds it to a fresh
// MatchArc of the same arc: the same ids, and no more records scanned
// than the store holds in the buckets the arc touches.
func checkMemoLookup(t *testing.T, s *Store, w *memoWorld, q pps.Query, lo, hi ring.Point, opts MatchOptions, refill bool, when string) {
	t.Helper()
	got, scanned, err := s.MatchArcMemo(context.Background(), w.m, q, lo, hi, opts, refill)
	if err != nil {
		t.Fatalf("%s: MatchArcMemo(%v, %v): %v", when, lo, hi, err)
	}
	want, _, err := s.MatchArc(context.Background(), w.m, q, lo, hi, MatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, want) {
		t.Fatalf("%s: MatchArcMemo(%v, %v) = %v, a fresh MatchArc = %v", when, lo, hi, got, want)
	}
	var touched bucketSet
	for _, sp := range arcSpans(lo, hi) {
		touched.addRange(bucketOf(sp.first), bucketOf(sp.last))
	}
	bound := 0
	for _, r := range s.InArc(0, 0) {
		if touched.has(bucketOf(r.ID)) {
			bound++
		}
	}
	if scanned > bound {
		t.Fatalf("%s: MatchArcMemo(%v, %v) scanned %d records, the arc's buckets hold %d", when, lo, hi, scanned, bound)
	}
}

// checkMemoInvariants asserts, at a quiescent point, what the memo
// promises about itself: every entry's ids ascending and inside its
// covered buckets, and the byte accounting exact and within budget.
func checkMemoInvariants(t *testing.T, s *Store, when string) {
	t.Helper()
	mm := s.memo.Load()
	if mm == nil {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if mm.lru.Len() != len(mm.entries) {
		t.Fatalf("%s: %d entries in the map, %d in the LRU list", when, len(mm.entries), mm.lru.Len())
	}
	var sum int64
	for _, e := range mm.entries {
		sum += e.size
		if want := memoEntryBytes + 8*int64(cap(e.ids)); e.size != want {
			t.Fatalf("%s: entry accounted at %d bytes, holds %d", when, e.size, want)
		}
		if e.size > mm.budget/8 {
			t.Fatalf("%s: kept an entry of %d bytes under a budget of %d", when, e.size, mm.budget)
		}
		for i, id := range e.ids {
			if i > 0 && e.ids[i-1] >= id {
				t.Fatalf("%s: entry ids not ascending at %d", when, i)
			}
			if !e.covered.has(bucketOf(id)) {
				t.Fatalf("%s: entry holds id %d of uncovered bucket %d", when, id, bucketOf(id))
			}
		}
	}
	if sum != mm.resident || mm.resident > mm.budget {
		t.Fatalf("%s: resident %d, entries sum to %d, budget %d", when, mm.resident, sum, mm.budget)
	}
}

// memoEqualsScan drives one store through a seeded sequence of every
// mutator and of memoized lookups of every shape, checking each lookup
// against a fresh scan.
func memoEqualsScan(t *testing.T, w *memoWorld, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	s := New()
	if seed%2 == 1 {
		// Small enough that some entries are refused as oversize and the
		// rest push one another out.
		s.matchMemo().budget = 8 * (memoEntryBytes + 8*8)
	}
	s.Insert(w.recs(rng, 60)...)
	for step := 0; step < 150; step++ {
		when := fmt.Sprintf("seed %d step %d", seed, step)
		switch op := rng.Intn(16); {
		case op < 2:
			s.Insert(w.rec(rng))
		case op < 4:
			s.Insert(w.recs(rng, 2+rng.Intn(12))...)
		case op == 4:
			s.Delete(w.rec(rng).ID)
		case op == 5:
			ids := []uint64{rng.Uint64()} // one absent id
			for _, r := range w.recs(rng, 1+rng.Intn(8)) {
				ids = append(ids, r.ID)
			}
			s.Delete(ids...)
		case op == 6:
			if rng.Intn(3) == 0 {
				s.RetainStored(ring.NewArc(ring.Point(rng.Float64()), 0.1+rng.Float64()/2), 2+rng.Intn(6))
			}
		case op == 8:
			// A fill cut short after a few batches: an error, and nothing
			// of it in the entry (the next lookups would show it).
			ctx, cancel := context.WithCancel(context.Background())
			left := rng.Intn(4)
			lo, hi := w.arc(rng)
			_, _, err := s.MatchArcMemo(ctx, w.m, w.queries[rng.Intn(len(w.queries))], lo, hi, MatchOptions{
				BatchSize: 1 + rng.Intn(4),
				Limiter: func(ctx context.Context, _ int) error {
					if left--; left < 0 {
						cancel()
					}
					return ctx.Err()
				},
			}, rng.Intn(4) == 0)
			cancel()
			if err != nil && !errors.Is(err, context.Canceled) {
				t.Fatalf("%s: cancelled fill: %v", when, err)
			}
		default:
			lo, hi := w.arc(rng)
			opts := MatchOptions{Threads: 1 + rng.Intn(3), BatchSize: 1 + rng.Intn(8)}
			checkMemoLookup(t, s, w, w.queries[rng.Intn(len(w.queries))], lo, hi, opts, rng.Intn(8) == 0, when)
		}
		checkMemoInvariants(t, s, when)
	}
	// Whatever the interleaving left in the memo, every key answers the
	// full ring like a scan.
	for _, q := range w.queries {
		checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "at the end")
	}
}

// FuzzMemoEqualsScan: under any sequence of Insert (fresh ids, overwrites
// that flip a match, batches across buckets), Delete, RetainStored,
// cancelled fills, refills and evictions, a memoized lookup of any arc
// returns what a fresh MatchArc returns. It is also the test that fails
// when a mutator of recs forgets to stamp its buckets.
func FuzzMemoEqualsScan(f *testing.F) {
	w := newMemoWorld(f)
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { memoEqualsScan(t, w, seed) })
}

// TestMemoBucketCounts pins the memo's exact counters on a fixed
// sequence: a one-record Insert between two identical lookups re-scans
// exactly one bucket, and only the records in it.
func TestMemoBucketCounts(t *testing.T) {
	w := newMemoWorld(t)
	rng := rand.New(rand.NewSource(1))
	s := New()
	s.Insert(w.recs(rng, 200)...)
	if st := s.MemoStats(); st != (MemoStats{}) {
		t.Fatalf("a store never asked has memo stats %+v", st)
	}
	q := w.queries[0]
	lo, hi := ring.Point(0.25), ring.Point(0.75) // ids (1<<62, 3<<62]: buckets 256..768
	checkMemoLookup(t, s, w, q, lo, hi, MatchOptions{}, false, "cold")
	cold := s.MemoStats()
	if cold.Lookups != 1 || cold.BucketsReused != 0 || cold.BucketsRescanned != 513 || cold.Entries != 1 {
		t.Fatalf("cold lookup: %+v, want 1 lookup re-scanning the arc's 513 buckets", cold)
	}
	_, scanned, err := s.MatchArcMemo(context.Background(), w.m, q, lo, hi, MatchOptions{}, false)
	if err != nil || scanned != 0 {
		t.Fatalf("an unchanged store re-scanned %d records (err %v)", scanned, err)
	}

	r := w.meta[0]
	r.ID = 512<<bucketShift + 12345
	s.Insert(r)
	inBucket := 0
	for _, held := range s.InArc(0, 0) {
		if bucketOf(held.ID) == 512 {
			inBucket++
		}
	}
	got, scanned, err := s.MatchArcMemo(context.Background(), w.m, q, lo, hi, MatchOptions{}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(got, r.ID) {
		t.Fatalf("the inserted record %d (\"even\") is missing from the memoized answer", r.ID)
	}
	if scanned != inBucket {
		t.Fatalf("re-scanned %d records after a one-record insert, bucket 512 holds %d", scanned, inBucket)
	}
	st := s.MemoStats()
	if st.Lookups != 3 || st.BucketsRescanned != cold.BucketsRescanned+1 || st.BucketsReused != 513+512 {
		t.Fatalf("after the insert: %+v, want 3 lookups, 1 more bucket re-scanned, 513+512 reused", st)
	}

	// A write outside the arc dirties a covered bucket of a wider entry
	// only: the narrow arc still costs nothing.
	checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "full ring")
	r.ID = 5
	s.Insert(r)
	if _, scanned, _ = s.MatchArcMemo(context.Background(), w.m, q, lo, hi, MatchOptions{}, false); scanned != 0 {
		t.Fatalf("a write to bucket 0 made the arc over buckets 256..768 re-scan %d records", scanned)
	}
	checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "full ring after the write")

	// Refill never answers from memory.
	if _, scanned, _ = s.MatchArcMemo(context.Background(), w.m, q, 0, 0, MatchOptions{}, true); scanned != s.Len() {
		t.Fatalf("a refill scanned %d of %d records", scanned, s.Len())
	}
	if st := s.MemoStats(); st.Entries != 1 || st.Evictions != 0 || st.Bytes < memoEntryBytes {
		t.Fatalf("one key, no pressure: %+v", st)
	}
}

// TestMemoBudget: the memo stays within its byte budget by evicting the
// least recently used entries and by refusing one larger than an eighth.
func TestMemoBudget(t *testing.T) {
	w := newMemoWorld(t)
	rng := rand.New(rand.NewSource(2))
	s := New()
	s.Insert(w.recs(rng, 300)...)
	mm := s.matchMemo()
	mm.budget = 8 * (memoEntryBytes + 8*8) // room for small entries only
	for round := 0; round < 3; round++ {
		for _, q := range w.queries {
			checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "full ring")
			checkMemoLookup(t, s, w, q, 0.1, 0.2, MatchOptions{}, false, "narrow arc")
			checkMemoInvariants(t, s, "under pressure")
		}
	}
	st := s.MemoStats()
	if st.Evictions == 0 {
		t.Fatalf("no eviction under a %d-byte budget: %+v", mm.budget, st)
	}
	if st.Bytes > mm.budget {
		t.Fatalf("resident %d over budget %d", st.Bytes, mm.budget)
	}
}

// TestMemoConcurrent: writers of every kind race memoized lookups of the
// same key and of different keys. Run under -race in CI. A lock-order
// inversion between an entry's mutex and the store's lock would hang it;
// at every quiescent point each key must answer like a fresh scan.
func TestMemoConcurrent(t *testing.T) {
	w := newMemoWorld(t)
	s := New()
	s.Insert(w.recs(rand.New(rand.NewSource(3)), 100)...)
	s.matchMemo().budget = 16 * memoEntryBytes // evictions race the lookups too
	for round := int64(0); round < 4; round++ {
		var stop atomic.Bool
		var writers, readers sync.WaitGroup
		for i := int64(0); i < 3; i++ {
			writers.Add(1)
			go func(rng *rand.Rand) {
				defer writers.Done()
				for n := 0; n < 150; n++ {
					switch rng.Intn(5) {
					case 0:
						s.Delete(w.rec(rng).ID)
					case 1:
						s.Delete(w.rec(rng).ID, w.rec(rng).ID, w.rec(rng).ID)
					case 2:
						s.Insert(w.recs(rng, 2+rng.Intn(10))...)
					default:
						s.Insert(w.rec(rng))
					}
				}
			}(rand.New(rand.NewSource(100*round + i)))
		}
		for i := int64(0); i < 4; i++ {
			readers.Add(1)
			go func(i int64, rng *rand.Rand) {
				defer readers.Done()
				for !stop.Load() {
					q := w.queries[0] // two readers share a key
					if i >= 2 {
						q = w.queries[rng.Intn(len(w.queries))]
					}
					lo, hi := w.arc(rng)
					ids, _, err := s.MatchArcMemo(context.Background(), w.m, q, lo, hi, MatchOptions{Threads: 1 + rng.Intn(2)}, rng.Intn(16) == 0)
					if err != nil {
						t.Errorf("concurrent lookup: %v", err)
						return
					}
					if !slices.IsSorted(ids) {
						t.Errorf("concurrent lookup returned unsorted ids")
						return
					}
				}
			}(i, rand.New(rand.NewSource(1000*round+i)))
		}
		writers.Wait()
		stop.Store(true)
		readers.Wait()
		rng := rand.New(rand.NewSource(round))
		for _, q := range w.queries {
			lo, hi := w.arc(rng)
			checkMemoLookup(t, s, w, q, lo, hi, MatchOptions{}, false, "quiescent")
			checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "quiescent, full ring")
		}
		checkMemoInvariants(t, s, "quiescent")
		checkScheduleInvariants(t, s, "quiescent")
	}
}

// TestMemoFillKeepsOrderAndGathers pins what a warm fill costs once the
// entry knows its predicate order: after a cold lookup of a
// two-predicate query has sampled SelectivitySamples records and
// settled, an Insert into three non-adjacent buckets makes the next
// lookup re-scan those three buckets in one batch, sampling nothing,
// with one matching thread or two. A refill drops the order and samples
// again.
func TestMemoFillKeepsOrderAndGathers(t *testing.T) {
	w := newMemoWorld(t)
	q := w.queries[4] // "even" OR "absent"
	if len(q.Preds) != 2 || q.Op != pps.Or {
		t.Fatalf("query 4 is %v over %d predicates, want OR over two", q.Op, len(q.Preds))
	}
	rng := rand.New(rand.NewSource(5))
	s := New()
	recs := make([]pps.Encoded, 2000)
	for i := range recs {
		recs[i] = w.meta[rng.Intn(len(w.meta))]
		recs[i].ID = rng.Uint64()
	}
	s.Insert(recs...)
	n := s.Len()

	checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "cold")
	cold := s.MemoStats()
	if want := (n + 255) / 256; cold.RecordsSampled != pps.SelectivitySamples || cold.Batches != int64(want) {
		t.Fatalf("cold lookup of %d records: %+v, want %d records sampled in %d batches", n, cold, pps.SelectivitySamples, want)
	}

	for round, threads := range []int{1, 2} {
		before := s.MemoStats()
		dirty := []int{100, 300, 700}
		for _, b := range dirty {
			r := w.meta[0]
			r.ID = uint64(b)<<bucketShift + uint64(round+1)*12345
			s.Insert(r)
		}
		inBuckets := 0
		for _, held := range s.InArc(0, 0) {
			if slices.Contains(dirty, bucketOf(held.ID)) {
				inBuckets++
			}
		}
		got, scanned, err := s.MatchArcMemo(context.Background(), w.m, q, 0, 0, MatchOptions{Threads: threads}, false)
		if err != nil {
			t.Fatal(err)
		}
		want, _, _ := s.MatchArc(context.Background(), w.m, q, 0, 0, MatchOptions{})
		if !slices.Equal(got, want) {
			t.Fatalf("%d threads: the warm lookup returned %d ids, a scan %d", threads, len(got), len(want))
		}
		st := s.MemoStats()
		if scanned != inBuckets || st.BucketsRescanned != before.BucketsRescanned+3 ||
			st.RecordsSampled != before.RecordsSampled || st.Batches != before.Batches+1 {
			t.Fatalf("%d threads: warm lookup scanned %d records (3 buckets hold %d): %+v after %+v, want 3 buckets re-scanned in 1 batch, none sampled",
				threads, scanned, inBuckets, st, before)
		}
	}

	before := s.MemoStats()
	if _, scanned, err := s.MatchArcMemo(context.Background(), w.m, q, 0, 0, MatchOptions{}, true); err != nil || scanned != s.Len() {
		t.Fatalf("refill scanned %d of %d records (err %v)", scanned, s.Len(), err)
	}
	if st := s.MemoStats(); st.RecordsSampled != before.RecordsSampled+pps.SelectivitySamples {
		t.Fatalf("a refill sampled %d records, want %d", st.RecordsSampled-before.RecordsSampled, pps.SelectivitySamples)
	}

	// Every gather the fills took went back cleared: the pool holds no
	// record's bytes.
	g := getGather(256)
	for i, r := range g.recs[:cap(g.recs)] {
		if r.Nonce != nil || r.Filter != nil || r.ID != 0 {
			t.Fatalf("a pooled gather still holds record %d (id %d)", i, r.ID)
		}
	}
	for i, k := range g.ks[:cap(g.ks)] {
		if k != (pps.KeySchedule{}) {
			t.Fatalf("a pooled gather still holds key schedule %d", i)
		}
	}
	g.release()
}
