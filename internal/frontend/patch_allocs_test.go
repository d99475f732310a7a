//go:build !race

package frontend

import (
	"math/rand"
	"testing"

	"roar/internal/pps"
)

// patchBench is a cached answer and the records drained after it: n
// records of a 1 000-record slim corpus rewritten or added, a third of
// them matching.
func patchBench(tb testing.TB, n int) (*pps.Matcher, pps.Query, []uint64, []pps.Encoded, []pps.KeySchedule) {
	enc := slimEncoder()
	m, err := pps.NewMatcher(enc.ServerParams())
	if err != nil {
		tb.Fatal(err)
	}
	q, err := enc.EncryptQuery(pps.And, pps.Predicate{Kind: pps.Keyword, Word: "aa"})
	if err != nil {
		tb.Fatal(err)
	}
	pool := []pps.Encoded{docRec(tb, enc, 0, "aa"), docRec(tb, enc, 0, "bb"), docRec(tb, enc, 0, "cc")}
	rng := rand.New(rand.NewSource(5))
	var ids []uint64
	for id := uint64(1); id <= 1000; id++ {
		if id%3 == 0 {
			ids = append(ids, id<<20)
		}
	}
	recs := make([]pps.Encoded, n)
	for i := range recs {
		recs[i] = pool[rng.Intn(len(pool))]
		recs[i].ID = uint64(1+rng.Intn(1500)) << 20
	}
	return m, q, ids, recs, pps.AppendKeySchedules(nil, recs)
}

// TestCachePatchAllocations: a patch over 16 drained records
// (mixed_zipf's write batch) allocates patchIDs' five slices — the
// write order, the last writes and their schedules, the matches, the
// answer — whatever the answer's size. The Run a hit builds for it
// allocates per trapdoor element (47 times for this query's 17), not per
// record.
func TestCachePatchAllocations(t *testing.T) {
	m, q, ids, recs, ks := patchBench(t, 16)
	run := m.NewRun(q)
	allocs := testing.AllocsPerRun(50, func() {
		patchIDs(ids, recs, ks, run)
	})
	t.Logf("%v allocations per 16-record patch of a %d-id answer; %v per Run", allocs, len(ids),
		testing.AllocsPerRun(10, func() { m.NewRun(q) }))
	if allocs > 5 {
		t.Errorf("a 16-record patch allocated %v times, want 5", allocs)
	}
}

// BenchmarkCachePatch is the cost of one patch: a Run for the query
// and patchIDs over n drained records. Compare n = 1024 (a patch of the
// whole log window) with a miss's fan-out.
func BenchmarkCachePatch(b *testing.B) {
	for _, n := range []int{16, 1024} {
		b.Run(map[int]string{16: "16", 1024: "1024"}[n], func(b *testing.B) {
			m, q, ids, recs, ks := patchBench(b, n)
			b.ReportAllocs()
			for b.Loop() {
				patchIDs(ids, recs, ks, m.NewRun(q))
			}
		})
	}
}
