package store

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"roar/internal/pps"
	"roar/internal/ring"
)

// tailClear reports whether every slot of the backing array past
// len(s.recs) (up to oldLen, the length before the shrink) has been
// zeroed. A non-nil Filter there means a dropped record's blob is still
// pinned by the backing array.
func tailClear(t *testing.T, s *Store, oldLen int) {
	t.Helper()
	tail := s.recs[len(s.recs):oldLen]
	for i, r := range tail {
		if r.ID != 0 || r.Filter != nil || r.Nonce != nil {
			t.Fatalf("backing-array slot %d past len still holds record %d (blob pinned)", len(s.recs)+i, r.ID)
		}
	}
}

// TestRetainStoredClearsTail: the §4.5 replica drop must zero the
// compaction tail — a node that just shrank its stored set should not
// keep every dropped replica's blob reachable — and Get must find
// exactly the records it kept.
func TestRetainStoredClearsTail(t *testing.T) {
	recs, _ := testRecords(t, 100)
	s := New()
	s.Insert(recs...)
	oldLen := len(s.recs)
	dropped := s.RetainStored(ring.NewArc(0.5, 0.1), 5)
	if dropped == 0 {
		t.Fatal("test needs a retain that actually drops records")
	}
	tailClear(t, s, oldLen)
	found := 0
	for _, r := range recs {
		if _, ok := s.Get(r.ID); ok {
			found++
		}
	}
	if found != s.Len() || found != len(recs)-dropped {
		t.Fatalf("Get finds %d of %d records after dropping %d (Len %d)", found, len(recs), dropped, s.Len())
	}
}

// TestRetainStoredWrapEmptyLowPiece: a stored set that wraps zero is
// the spans (lo, max] and [0, hi]. When every held id lies in the high
// piece, the low piece's index range is the empty {0, 0} and the high
// piece's starts at 0 too; the compaction must not read them in the
// other order, which sliced ids[5:0].
func TestRetainStoredWrapEmptyLowPiece(t *testing.T) {
	s := New()
	for d := uint64(1); d <= 5; d++ {
		s.Insert(pps.Encoded{ID: math.MaxUint64 - d})
	}
	// At p=4, [0.1, 0.2) holds (IDOf(0.85), max] and [0, IDOf(0.2)].
	if dropped := s.RetainStored(ring.NewArc(0.1, 0.1), 4); dropped != 0 || s.Len() != 5 {
		t.Fatalf("dropped %d and kept %d of 5 ids inside the high piece", dropped, s.Len())
	}
	checkScheduleInvariants(t, s, "after RetainStored")
}

// TestArcPartitionExactlyOnce is the PointOf/IDOf boundary property the
// frontend's correctness rests on: when the ring is partitioned into
// arcs whose endpoints all round through the same IDOf, every stored id
// must land in exactly one arc — no double-counting at a shared
// boundary, no id falling into the float-rounding gap between adjacent
// sub-queries. Ids are placed adversarially at IDOf(boundary)-1 /
// exact / +1 in addition to random ones.
func TestArcPartitionExactlyOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 100; trial++ {
		k := 2 + rng.Intn(6) // partitions
		bounds := make([]ring.Point, 0, k)
		seen := map[ring.Point]bool{}
		for len(bounds) < k {
			var p ring.Point
			switch rng.Intn(4) {
			case 0: // a point that is itself a rounded id position
				p = PointOf(rng.Uint64())
			case 1: // near the wrap
				p = ring.Norm(rng.Float64() * 1e-9)
			default:
				p = ring.Point(rng.Float64())
			}
			if !seen[p] {
				seen[p] = true
				bounds = append(bounds, p)
			}
		}
		sort.Slice(bounds, func(a, b int) bool { return bounds[a] < bounds[b] })

		s := New()
		want := map[uint64]bool{}
		add := func(id uint64) {
			if !want[id] {
				want[id] = true
				s.Insert(pps.Encoded{ID: id})
			}
		}
		add(0)
		add(math.MaxUint64)
		for _, b := range bounds {
			id := IDOf(b)
			add(id)
			if id > 0 {
				add(id - 1)
			}
			if id < math.MaxUint64 {
				add(id + 1)
			}
		}
		for i := 0; i < 50; i++ {
			add(rng.Uint64())
		}

		count := map[uint64]int{}
		for i := range bounds {
			lo := bounds[i]
			hi := bounds[(i+1)%len(bounds)]
			for _, r := range s.InArc(lo, hi) {
				count[r.ID]++
			}
		}
		for id := range want {
			if count[id] != 1 {
				t.Fatalf("trial %d (bounds %v): id %d (point %v) assigned to %d partitions, want exactly 1",
					trial, bounds, id, PointOf(id), count[id])
			}
		}
	}
}
