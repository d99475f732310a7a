package index

import (
	"math/rand"
	"sort"
	"testing"
)

// randomBitmap builds a bitmap plus its reference set, mixing sparse
// and dense regions so both container forms are exercised.
func randomBitmap(rng *rand.Rand, n int, span uint64) (*Bitmap, map[uint64]bool) {
	ref := make(map[uint64]bool)
	for i := 0; i < n; i++ {
		ref[rng.Uint64()%span] = true
	}
	return bitmapOf(sortedKeys(ref)), ref
}

func sortedKeys(ref map[uint64]bool) []uint64 {
	out := make([]uint64, 0, len(ref))
	for v := range ref {
		out = append(out, v)
	}
	sort.Slice(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

func TestBitmapOfContainsIterate(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	// span < 2^16 forces dense promotion; huge span stays sparse arrays.
	for _, span := range []uint64{1 << 14, 1 << 20, 1 << 63} {
		b, ref := randomBitmap(rng, 20000, span)
		if b.Cardinality() != len(ref) {
			t.Fatalf("span %d: cardinality %d want %d", span, b.Cardinality(), len(ref))
		}
		for v := range ref {
			if !b.Contains(v) {
				t.Fatalf("span %d: missing %d", span, v)
			}
		}
		for i := 0; i < 1000; i++ {
			v := rng.Uint64() % span
			if b.Contains(v) != ref[v] {
				t.Fatalf("span %d: Contains(%d) = %v want %v", span, v, b.Contains(v), ref[v])
			}
		}
		var got []uint64
		b.Iterate(func(v uint64) bool { got = append(got, v); return true })
		want := sortedKeys(ref)
		if len(got) != len(want) {
			t.Fatalf("span %d: iterate yielded %d values want %d", span, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("span %d: iterate[%d] = %d want %d", span, i, got[i], want[i])
			}
		}
	}
}

func TestBitmapDensePromotion(t *testing.T) {
	var vs []uint64
	for v := uint64(0); v <= arrayMaxCard; v++ {
		vs = append(vs, 2*v) // one container, card 4097 → words form
	}
	b := bitmapOf(vs)
	if b.Cardinality() != arrayMaxCard+1 {
		t.Fatalf("cardinality %d", b.Cardinality())
	}
	if len(b.cs) != 1 || b.cs[0].words == nil {
		t.Fatalf("expected a single dense container, got %d containers (words=%v)",
			len(b.cs), len(b.cs) > 0 && b.cs[0].words != nil)
	}
	for v := uint64(0); v <= arrayMaxCard; v++ {
		if !b.Contains(2*v) || b.Contains(2*v+1) {
			t.Fatalf("membership wrong around %d after promotion", 2*v)
		}
	}
}

func TestBitmapSetOps(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, span := range []uint64{1 << 13, 1 << 22} {
		a, refA := randomBitmap(rng, 8000, span)
		b, refB := randomBitmap(rng, 8000, span)

		and := And(a, b)
		or := Or(a, b)
		wantAnd, wantOr := 0, len(refA)
		for v := range refB {
			if refA[v] {
				wantAnd++
			} else {
				wantOr++
			}
		}
		if and.Cardinality() != wantAnd {
			t.Fatalf("span %d: And card %d want %d", span, and.Cardinality(), wantAnd)
		}
		if or.Cardinality() != wantOr {
			t.Fatalf("span %d: Or card %d want %d", span, or.Cardinality(), wantOr)
		}
		and.Iterate(func(v uint64) bool {
			if !refA[v] || !refB[v] {
				t.Fatalf("span %d: And yielded non-member %d", span, v)
			}
			return true
		})
		or.Iterate(func(v uint64) bool {
			if !refA[v] && !refB[v] {
				t.Fatalf("span %d: Or yielded non-member %d", span, v)
			}
			return true
		})
		// Ops must return canonical containers (array iff ≤ 4096).
		for _, res := range []*Bitmap{and, or} {
			for i, c := range res.cs {
				if c.words != nil && c.card <= arrayMaxCard {
					t.Fatalf("span %d: non-canonical dense container (key %d card %d)", span, res.keys[i], c.card)
				}
				if c.words == nil && c.card > arrayMaxCard {
					t.Fatalf("span %d: overlong array container (card %d)", span, c.card)
				}
			}
		}
	}
}

func TestThreshold(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const span = 1 << 18
	bms := make([]*Bitmap, 4)
	refs := make([]map[uint64]bool, 4)
	for i := range bms {
		bms[i], refs[i] = randomBitmap(rng, 30000, span)
	}
	for minMatch := 1; minMatch <= 5; minMatch++ {
		got := Threshold(bms, minMatch)
		want := make(map[uint64]bool)
		for v := uint64(0); v < span; v++ {
			n := 0
			for _, ref := range refs {
				if ref[v] {
					n++
				}
			}
			if n >= minMatch {
				want[v] = true
			}
		}
		if minMatch > len(bms) {
			want = nil
		}
		if got.Cardinality() != len(want) {
			t.Fatalf("minMatch %d: card %d want %d", minMatch, got.Cardinality(), len(want))
		}
		got.Iterate(func(v uint64) bool {
			if !want[v] {
				t.Fatalf("minMatch %d: non-member %d", minMatch, v)
			}
			return true
		})
	}
}

func TestAndAllEarlyTermination(t *testing.T) {
	var av, bv []uint64
	for v := uint64(0); v < 100; v++ {
		av = append(av, v)
		bv = append(bv, v+1000)
	}
	a, b := bitmapOf(av), bitmapOf(bv)
	if got := AndAll([]*Bitmap{a, b}); got.Cardinality() != 0 {
		t.Fatalf("disjoint AndAll card %d", got.Cardinality())
	}
	if got := AndAll([]*Bitmap{a}); got != a {
		t.Fatal("single-input AndAll should share the input")
	}
	if got := AndAll(nil); got.Cardinality() != 0 {
		t.Fatal("empty AndAll not empty")
	}
}

func TestAppendRange(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	b, ref := randomBitmap(rng, 20000, 1<<20)
	all := sortedKeys(ref)
	for trial := 0; trial < 200; trial++ {
		from := rng.Uint64() % (1 << 20)
		to := from + rng.Uint64()%(1<<18)
		limit := 0
		if trial%2 == 0 {
			limit = int(rng.Int31n(50)) + 1
		}
		got := b.AppendRange(from, to, limit, nil)
		var want []uint64
		for _, v := range all {
			if v >= from && v <= to {
				want = append(want, v)
				if limit > 0 && len(want) == limit {
					break
				}
			}
		}
		if len(got) != len(want) {
			t.Fatalf("[%d,%d] limit %d: got %d values want %d", from, to, limit, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("[%d,%d] limit %d: got[%d]=%d want %d", from, to, limit, i, got[i], want[i])
			}
		}
	}
	// Degenerate and boundary shapes.
	if out := b.AppendRange(5, 4, 0, nil); len(out) != 0 {
		t.Fatal("inverted range not empty")
	}
	full := b.AppendRange(0, ^uint64(0), 0, nil)
	if len(full) != len(all) {
		t.Fatalf("full range yielded %d want %d", len(full), len(all))
	}
}
