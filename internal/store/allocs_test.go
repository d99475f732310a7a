//go:build !race

package store

import (
	"testing"

	"roar/internal/pps"
)

// The race detector instruments allocations, so the count below is only
// meaningful without -race.

// TestSortedUniqueAscendingAllocatesNothing is the count gate on the
// apply of a drain push: a strictly ascending batch, which is what the
// drain sends every replica, is taken as it is, with no copy and no sort.
func TestSortedUniqueAscendingAllocatesNothing(t *testing.T) {
	recs := make([]pps.Encoded, 256)
	for i := range recs {
		recs[i] = fuzzRec(byte(i), 1)
	}
	var out []pps.Encoded
	got := testing.AllocsPerRun(100, func() { out = SortedUnique(recs) })
	if got != 0 {
		t.Errorf("SortedUnique of %d ascending records allocates %.0f objects, want 0", len(recs), got)
	}
	if &out[0] != &recs[0] || len(out) != len(recs) {
		t.Errorf("SortedUnique returned a copy of ascending input")
	}
}

// TestInsertHeldAllocatesNothing is the count gate on a replica's apply
// of a drain push that rewrites objects it holds: a strictly ascending
// batch of 512 held ids, each with a nonce and filter of the lengths it
// holds, is copied over the stored bytes and allocates nothing. The
// store is one that is never scanned, as an ingesting node's is.
func TestInsertHeldAllocatesNothing(t *testing.T) {
	const n = 512
	recs := make([]pps.Encoded, n)
	for i := range recs {
		recs[i] = benchRec(uint64(i) << 50) // sixteen ids a bucket, as on a node
	}
	s := New()
	s.Insert(recs...)
	version := byte(0)
	got := testing.AllocsPerRun(100, func() {
		version++
		for _, r := range recs {
			r.Filter[0] = version
		}
		s.Insert(recs...)
	})
	if got != 0 {
		t.Errorf("Insert of %d held records of equal lengths allocates %.0f objects, want 0", n, got)
	}
	if r, _ := s.Get(recs[n-1].ID); r.Filter[0] != version {
		t.Errorf("the last rewrite is not what the store holds")
	}
}
