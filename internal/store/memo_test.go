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
	enc     *pps.Encoder
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
	w := &memoWorld{m: m, enc: enc, meta: meta}
	// Every single word and every ordered pair under both operators: more
	// keys than a small budget holds, answers from none to all records.
	words := []string{"even", "odd", "absent"}
	add := func(op pps.BoolOp, ws ...string) {
		w.queries = append(w.queries, w.query(t, op, ws...))
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

// query encrypts the op over one keyword predicate per word.
func (w *memoWorld) query(t testing.TB, op pps.BoolOp, words ...string) pps.Query {
	preds := make([]pps.Predicate, len(words))
	for i, word := range words {
		preds[i] = pps.Predicate{Kind: pps.Keyword, Word: word}
	}
	q, err := w.enc.EncryptQuery(op, preds...)
	if err != nil {
		t.Fatal(err)
	}
	return q
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
// than the store holds in the buckets the arc touches. It returns the
// records the lookup scanned.
func checkMemoLookup(t *testing.T, s *Store, w *memoWorld, q pps.Query, lo, hi ring.Point, opts MatchOptions, refill bool, when string) int {
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
	for _, sp := range ArcSpans(lo, hi) {
		touched.addRange(bucketOf(sp.First), bucketOf(sp.Last))
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
	return scanned
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
		case op == 4 || op == 5:
			// A narrow drop: the stored set keeps at least ~3/4 of the ring.
			s.RetainStored(ring.NewArc(ring.Point(rng.Float64()), 0.6+rng.Float64()/3), 2+rng.Intn(6))
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
	for seed := int64(1); seed <= 64; seed++ {
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
// same key, of different keys, and of A AND B against B AND A, which
// share both entries. Run under -race in CI. A lock-order inversion
// between two entries' mutexes, or between one and the store's lock,
// would hang it; at every quiescent point each key must answer like a
// fresh scan.
func TestMemoConcurrent(t *testing.T) {
	w := newMemoWorld(t)
	s := New()
	s.Insert(w.recs(rand.New(rand.NewSource(3)), 100)...)
	s.matchMemo().budget = 16 * memoEntryBytes // evictions race the lookups too
	evenOdd, oddEven := w.query(t, pps.And, "even", "odd"), w.query(t, pps.And, "odd", "even")
	for round := int64(0); round < 4; round++ {
		var stop atomic.Bool
		var writers, readers sync.WaitGroup
		for i := int64(0); i < 3; i++ {
			writers.Add(1)
			go func(rng *rand.Rand) {
				defer writers.Done()
				for n := 0; n < 150; n++ {
					switch rng.Intn(5) {
					case 0, 1:
						if rng.Intn(8) == 0 {
							s.RetainStored(ring.NewArc(ring.Point(rng.Float64()), 0.6), 4)
						}
					case 2:
						s.Insert(w.recs(rng, 2+rng.Intn(10))...)
					default:
						s.Insert(w.rec(rng))
					}
				}
			}(rand.New(rand.NewSource(100*round + i)))
		}
		for i := int64(0); i < 6; i++ {
			readers.Add(1)
			go func(i int64, rng *rand.Rand) {
				defer readers.Done()
				for !stop.Load() {
					var q pps.Query
					switch i {
					case 0, 1:
						q = w.queries[0] // two readers share a key
					case 2:
						q = evenOdd // two readers share two keys in opposite orders
					case 3:
						q = oddEven
					default:
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

// TestMemoFillGathers pins what a warm fill of scattered buckets costs:
// after a cold lookup of a two-predicate query, an Insert into three
// non-adjacent buckets makes the next lookup re-scan those three buckets
// in one batch for both predicates, with one matching thread or two, and
// every gather goes back to its pool cleared.
func TestMemoFillGathers(t *testing.T) {
	w := newMemoWorld(t)
	q := w.query(t, pps.Or, "even", "absent")
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
	if want := (n + pps.LaneWindow - 1) / pps.LaneWindow; cold.Batches != int64(want) || cold.Entries != 2 {
		t.Fatalf("cold lookup of %d records: %+v, want 2 entries filled in %d batches", n, cold, want)
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
		scanned := checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{Threads: threads}, false, "warm")
		st := s.MemoStats()
		if scanned != inBuckets || st.BucketsRescanned != before.BucketsRescanned+3 || st.Batches != before.Batches+1 {
			t.Fatalf("%d threads: warm lookup scanned %d records (3 buckets hold %d): %+v after %+v, want 3 buckets re-scanned in 1 batch",
				threads, scanned, inBuckets, st, before)
		}
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

// TestMemoSharesPredicates pins that entries are per predicate: once
// "even" and "odd" have each been looked up, every AND and OR of the two,
// in either order, is answered from their two entries without a scan,
// and a one-record insert re-scans its bucket once for both predicates.
func TestMemoSharesPredicates(t *testing.T) {
	w := newMemoWorld(t)
	s := New()
	s.Insert(w.recs(rand.New(rand.NewSource(4)), 200)...)
	for _, word := range []string{"even", "odd"} {
		if scanned := checkMemoLookup(t, s, w, w.query(t, pps.And, word), 0, 0, MatchOptions{}, false, word); scanned != s.Len() {
			t.Fatalf("cold lookup of %q scanned %d of %d records", word, scanned, s.Len())
		}
	}
	cold := s.MemoStats()
	if cold.Entries != 2 || cold.BucketsRescanned != 2*numBuckets {
		t.Fatalf("after two cold lookups: %+v, want 2 entries and every bucket re-scanned twice", cold)
	}

	and := w.query(t, pps.And, "even", "odd")
	for _, q := range []pps.Query{and, w.query(t, pps.And, "odd", "even"), w.query(t, pps.Or, "even", "odd")} {
		if scanned := checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "shared"); scanned != 0 {
			t.Fatalf("a query over two remembered predicates scanned %d records", scanned)
		}
	}
	st := s.MemoStats()
	if st.Entries != 2 || st.Lookups != 5 || st.BucketsRescanned != cold.BucketsRescanned || st.BucketsReused != 3*numBuckets {
		t.Fatalf("after three shared lookups: %+v, want 2 entries, 5 lookups, none re-scanned, 3 arcs reused", st)
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
	if scanned := checkMemoLookup(t, s, w, and, 0, 0, MatchOptions{}, false, "after an insert"); scanned != inBucket {
		t.Fatalf("after a one-record insert \"even\" AND \"odd\" scanned %d records, bucket 512 holds %d", scanned, inBucket)
	}
	if after := s.MemoStats(); after.BucketsRescanned != st.BucketsRescanned+1 || after.Batches != st.Batches+1 {
		t.Fatalf("after the insert: %+v, want 1 bucket re-scanned in 1 batch after %+v", after, st)
	}
	for _, word := range []string{"even", "odd"} {
		if scanned := checkMemoLookup(t, s, w, w.query(t, pps.And, word), 0, 0, MatchOptions{}, false, word); scanned != 0 {
			t.Fatalf("%q alone scanned %d records after the two-predicate fill", word, scanned)
		}
	}
}

// TestMemoEdgeQueries: a repeated predicate is one entry, and a query
// without predicates matches nothing without making one, under AND and
// OR alike; each answers like MatchArc.
func TestMemoEdgeQueries(t *testing.T) {
	w := newMemoWorld(t)
	s := New()
	s.Insert(w.recs(rand.New(rand.NewSource(6)), 120)...)

	for _, op := range []pps.BoolOp{pps.And, pps.Or} {
		if scanned := checkMemoLookup(t, s, w, pps.Query{Op: op}, 0.1, 0.6, MatchOptions{}, false, "no predicate"); scanned != len(s.InArc(0.1, 0.6)) {
			t.Fatalf("%v without predicates scanned %d of the arc's %d records", op, scanned, len(s.InArc(0.1, 0.6)))
		}
	}
	if st := s.MemoStats(); st != (MemoStats{}) {
		t.Fatalf("queries without predicates touched the memo: %+v", st)
	}

	checkMemoLookup(t, s, w, w.query(t, pps.And, "even", "even"), 0, 0, MatchOptions{}, false, "even AND even")
	if st := s.MemoStats(); st.Entries != 1 || st.BucketsRescanned != numBuckets {
		t.Fatalf("even AND even: %+v, want 1 entry, every bucket scanned once", st)
	}
	for _, q := range []pps.Query{w.query(t, pps.And, "even"), w.query(t, pps.Or, "even", "even"), w.query(t, pps.Or, "even")} {
		if scanned := checkMemoLookup(t, s, w, q, 0.3, 0.9, MatchOptions{}, false, "even"); scanned != 0 {
			t.Fatalf("a query over the remembered \"even\" alone scanned %d records", scanned)
		}
	}
	if st := s.MemoStats(); st.Entries != 1 {
		t.Fatalf("one predicate in four spellings made %d entries", st.Entries)
	}
}

// TestMemoBroadPredicate pins the tombstone of a predicate too broad to
// keep: an AND checks it on the candidates its other predicates leave,
// exactly those records and no more; an OR over it and the predicate
// alone take the plain scan; a refill drops the tombstone.
func TestMemoBroadPredicate(t *testing.T) {
	w := newMemoWorld(t)
	rng := rand.New(rand.NewSource(8))
	s := New()
	recs := make([]pps.Encoded, 300)
	for i := range recs {
		recs[i] = w.meta[1] // "odd"
		if i%20 == 0 {
			recs[i] = w.meta[0] // "even"
		}
		recs[i].ID = rng.Uint64()
	}
	s.Insert(recs...)
	n := s.Len()
	mm := s.matchMemo()
	mm.budget = 8 * (memoEntryBytes + 8*64) // room for "even", not for "odd"

	and := w.query(t, pps.And, "even", "odd")
	if scanned := checkMemoLookup(t, s, w, and, 0, 0, MatchOptions{}, false, "cold"); scanned != n {
		t.Fatalf("cold lookup scanned %d of %d records", scanned, n)
	}
	if st := s.MemoStats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("after the cold lookup: %+v, want \"even\" kept and \"odd\" a tombstone", st)
	}
	checkMemoInvariants(t, s, "tombstone")

	for _, arc := range [][2]ring.Point{{0, 0}, {0.25, 0.75}, {0.8, 0.3}} {
		lo, hi := arc[0], arc[1]
		cands, _, err := s.MatchArc(context.Background(), w.m, w.query(t, pps.And, "even"), lo, hi, MatchOptions{})
		if err != nil || len(cands) == 0 {
			t.Fatalf("arc (%v, %v): %d \"even\" records (err %v)", lo, hi, len(cands), err)
		}
		before := s.MemoStats()
		for _, q := range []pps.Query{and, w.query(t, pps.And, "odd", "even")} {
			if scanned := checkMemoLookup(t, s, w, q, lo, hi, MatchOptions{}, false, "candidates"); scanned != len(cands) {
				t.Fatalf("arc (%v, %v): the AND over a tombstone scanned %d records, its candidates are %d", lo, hi, scanned, len(cands))
			}
		}
		if st := s.MemoStats(); st.Batches != before.Batches+2 || st.BucketsRescanned != before.BucketsRescanned {
			t.Fatalf("arc (%v, %v): %+v after %+v, want each candidate check in 1 batch and no bucket re-scanned", lo, hi, st, before)
		}
	}

	for _, q := range []pps.Query{w.query(t, pps.And, "odd"), w.query(t, pps.Or, "even", "odd")} {
		if scanned := checkMemoLookup(t, s, w, q, 0, 0, MatchOptions{}, false, "plain"); scanned != n {
			t.Fatalf("a query the memo cannot answer scanned %d of %d records", scanned, n)
		}
	}
	if st := s.MemoStats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("plain scans changed the memo: %+v", st)
	}

	if scanned := checkMemoLookup(t, s, w, and, 0, 0, MatchOptions{}, true, "refill"); scanned != n {
		t.Fatalf("a refill scanned %d of %d records", scanned, n)
	}
	if st := s.MemoStats(); st.Entries != 2 || st.Evictions != 2 {
		t.Fatalf("after the refill: %+v, want \"odd\" filled and turned into a tombstone again", st)
	}
	checkMemoInvariants(t, s, "after the refill")
}

// BenchmarkMemoLookup is the cost of a lookup the memo answers without a
// scan, over a 4 000-record store, on the full ring: warm repeats a
// one-predicate query; shared asks an AND of two predicates whose entries
// single-predicate lookups made.
func BenchmarkMemoLookup(b *testing.B) {
	w := newMemoWorld(b)
	rng := rand.New(rand.NewSource(9))
	s := New()
	recs := make([]pps.Encoded, 4000)
	for i := range recs {
		recs[i] = w.meta[rng.Intn(len(w.meta))]
		recs[i].ID = rng.Uint64()
	}
	s.Insert(recs...)
	ctx := context.Background()
	even, absent := w.query(b, pps.And, "even"), w.query(b, pps.And, "absent")
	for _, q := range []pps.Query{even, absent} {
		if _, _, err := s.MatchArcMemo(ctx, w.m, q, 0, 0, MatchOptions{}, false); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name string
		q    pps.Query
	}{{"warm", even}, {"shared", w.query(b, pps.And, "even", "absent")}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, scanned, err := s.MatchArcMemo(ctx, w.m, bc.q, 0.2, 0.7, MatchOptions{}, false); err != nil || scanned != 0 {
					b.Fatalf("scanned %d (err %v)", scanned, err)
				}
			}
		})
	}
}
