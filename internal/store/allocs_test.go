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
