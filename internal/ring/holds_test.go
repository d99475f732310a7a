package ring_test

import (
	"math/rand"
	"slices"
	"testing"

	"roar/internal/ring"
	"roar/internal/store"
)

// The rendezvous properties below are stated in identifier space, the
// space records are routed, pushed, trimmed and read in: a sub-query
// (lo, hi] reads store.ArcSpans(lo, hi), and a node with range a at
// level p holds store.StoredSpans(a, p).

// probeArcs returns the pq match arcs of a query started at q, each
// (previous probe, probe] as core's plans cut them.
func probeArcs(q ring.Point, pq int) [][2]ring.Point {
	arcs := make([][2]ring.Point, pq)
	lo := q.Add(float64(pq-1) / float64(pq))
	for i := range arcs {
		hi := q.Add(float64(i) / float64(pq))
		arcs[i], lo = [2]ring.Point{lo, hi}, hi
	}
	return arcs
}

// holds reports whether one of spans holds id.
func holds(spans []store.Span, id uint64) bool {
	return slices.ContainsFunc(spans, func(sp store.Span) bool { return sp.First <= id && id <= sp.Last })
}

// TestSubQueryTiling is the core rendezvous invariant: for any pq and any
// object/query placement, exactly one of the pq probe arcs reads the
// object, the ids on and beside every probe included.
func TestSubQueryTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		pq := 1 + rng.Intn(64)
		arcs := probeArcs(ring.Norm(rng.Float64()), pq)
		ids := []uint64{rng.Uint64()}
		for _, a := range arcs {
			at := store.IDOf(a[1])
			ids = append(ids, at-1, at, at+1)
		}
		for _, id := range ids {
			reads := 0
			for _, a := range arcs {
				if holds(store.ArcSpans(a[0], a[1]), id) {
					reads++
				}
			}
			if reads != 1 {
				t.Fatalf("pq=%d id=%#x: %d probe arcs read it, want exactly 1", pq, id, reads)
			}
		}
	}
}

// TestReplicationCoversProbe: when pq >= p, the node owning a probe
// point holds every id of the probe's arc, so the responsible server
// actually stores each object it must match.
func TestReplicationCoversProbe(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 2000; trial++ {
		p := 1 + rng.Intn(32)
		pq := p + rng.Intn(32)
		r := ring.New()
		for id := ring.NodeID(0); r.Len() < 1+rng.Intn(40); id++ {
			_ = r.Insert(id, ring.Norm(rng.Float64()))
		}
		for _, a := range probeArcs(ring.Norm(rng.Float64()), pq) {
			owner := r.Owner(a[1])
			own, _ := r.Range(owner)
			if rest := store.Minus(store.ArcSpans(a[0], a[1]), store.StoredSpans(own, p)); len(rest) > 0 {
				t.Fatalf("p=%d pq=%d arc (%v,%v]: owner %d of range %v lacks ids %v", p, pq, a[0], a[1], owner, own, rest)
			}
		}
	}
}

// TestHoldersMatchReplication: for random rings and objects, the nodes
// whose stored spans hold an object's id include the owner of the probe
// point whose arc reads it.
func TestHoldersMatchReplication(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	for trial := 0; trial < 300; trial++ {
		n := 2 + rng.Intn(30)
		r := ring.NewEqual(n)
		p := 1 + rng.Intn(n)
		obj := rng.Uint64()
		var holders []ring.NodeID
		for _, id := range r.IDs() {
			a, _ := r.Range(id)
			if holds(store.StoredSpans(a, p), obj) {
				holders = append(holders, id)
			}
		}
		for _, a := range probeArcs(ring.Norm(rng.Float64()), p) {
			if owner := r.Owner(a[1]); holds(store.ArcSpans(a[0], a[1]), obj) && !slices.Contains(holders, owner) {
				t.Fatalf("n=%d p=%d obj=%#x probe=%v owner=%d not in holders %v", n, p, obj, a[1], owner, holders)
			}
		}
	}
}

func TestRingHolders(t *testing.T) {
	r := ring.NewEqual(8)
	holders := func(id uint64, p int) []ring.NodeID {
		var out []ring.NodeID
		for _, n := range r.IDs() {
			a, _ := r.Range(n)
			if holds(store.StoredSpans(a, p), id) {
				out = append(out, n)
			}
		}
		return out
	}
	// An object at 0.1 replicates over [0.1, 0.35): node 0 [0,.125),
	// 1 [.125,.25) and 2 [.25,.375) hold it.
	if got, want := holders(store.IDOf(0.1)+1, 4), []ring.NodeID{0, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("holders = %v, want %v", got, want)
	}
	if got := holders(store.IDOf(0.1)+1, 1); len(got) != 8 {
		t.Errorf("p=1 holders = %d nodes, want 8", len(got))
	}
}
