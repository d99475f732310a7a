package index

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// testDocs is the ordinal space of the kernel tests: four containers,
// the last one partial.
const testDocs = 3<<16 + 12345

// testPostings is a fixed pool of postings over [0, testDocs) mixing
// the container forms: 0, 1 sparse arrays; 2 a fat array; 3, 4 dense
// words; 5 present in containers 1 and 3 only; 6 a handful of values;
// 7 dense in container 0 and sparse after it.
var testPostings = sync.OnceValue(func() []*Bitmap {
	rng := rand.New(rand.NewSource(77))
	density := []func(ord int) float64{
		func(int) float64 { return 1.0 / 500 },
		func(int) float64 { return 1.0 / 300 },
		func(int) float64 { return 1.0 / 20 },
		func(int) float64 { return 1.0 / 3 },
		func(int) float64 { return 1.0 / 2 },
		func(ord int) float64 { return float64(ord>>16&1) / 25 },
		func(int) float64 { return 1.0 / 40000 },
		func(ord int) float64 {
			if ord < 1<<16 {
				return 0.4
			}
			return 1.0 / 100
		},
	}
	out := make([]*Bitmap, len(density))
	for i, p := range density {
		var ords []uint64
		for ord := 0; ord < testDocs; ord++ {
			if rng.Float64() < p(ord) {
				ords = append(ords, uint64(ord))
			}
		}
		out[i] = bitmapOf(ords)
	}
	return out
})

// windowCase is one evaluator input: postings picked from the pool by
// index, the match threshold, the windows and the limit.
type windowCase struct {
	terms   []byte
	need    int
	windows [][2]int
	limit   int
}

// windowCases is the grid the differential test walks and the fuzz
// target is seeded from: array×array, array×words, words×words and 3–4
// terms; AND, OR and every threshold between; windows that start or end
// mid-container, sit exactly on container edges, are empty, hold one
// ordinal, or wrap in two ranges; limits below, at and above the match
// count.
func windowCases() []windowCase {
	termSets := [][]byte{
		{0}, {3}, {0, 1}, {0, 2}, {0, 3}, {2, 3}, {3, 4}, {0, 5}, {6, 3}, {7, 3}, {7, 4},
		{0, 1, 2}, {0, 3, 4}, {5, 6, 7}, {1, 2, 3, 4}, {0, 2, 5, 7}, {3, 3, 4},
	}
	windowSets := [][][2]int{
		{{0, testDocs}},
		{{1000, 70000}},
		{{100, 40000}},
		{{1 << 16, 2 << 16}},
		{{1<<16 - 1, 1<<16 + 1}},
		{{1<<16 + 5, 1<<16 + 6}},
		{{500, 500}},
		{{70000, 60000}},
		{{0, 3000}, {200000, testDocs}},
		{{0, 1 << 16}, {2 << 16, testDocs}},
		{{0, 0}, {3 << 16, testDocs}},
	}
	var cases []windowCase
	for _, terms := range termSets {
		for need := 1; need <= len(terms); need++ {
			for _, windows := range windowSets {
				for _, limit := range []int{0, 1, 20, 1 << 30} {
					cases = append(cases, windowCase{terms, need, windows, limit})
				}
			}
		}
	}
	return cases
}

// checkWindowCase compares searchWindows with the set-at-a-time
// reference on one case.
func checkWindowCase(t *testing.T, c windowCase) {
	t.Helper()
	pool := testPostings()
	postings := make([]*Bitmap, len(c.terms))
	for i, p := range c.terms {
		postings[i] = pool[int(p)%len(pool)]
	}
	got, scanned, err := searchWindows(context.Background(), postings, c.need, c.windows, c.limit)
	if err != nil {
		t.Fatalf("%+v: %v", c, err)
	}
	want := refSearch(postings, c.need, c.windows, c.limit)
	if !slices.Equal(got, want) {
		t.Fatalf("%+v: got %d ordinals %v..., reference %d %v...", c, len(got), head(got), len(want), head(want))
	}
	if scanned < len(got) {
		t.Fatalf("%+v: %d ordinals from %d scanned entries", c, len(got), scanned)
	}
}

func head(v []uint64) []uint64 { return v[:min(len(v), 8)] }

func TestSearchWindowsMatchesReference(t *testing.T) {
	for _, c := range windowCases() {
		checkWindowCase(t, c)
	}
}

// FuzzSearchWindow: any choice of postings, threshold, window and limit
// must answer exactly what the set-at-a-time reference answers.
func FuzzSearchWindow(f *testing.F) {
	for _, c := range windowCases() {
		if c.limit > 1<<16 {
			continue
		}
		w := c.windows[0]
		wrap := len(c.windows) == 2
		if wrap {
			w = [2]int{c.windows[1][0], c.windows[0][1]}
		}
		f.Add(c.terms, uint8(c.need), uint32(w[0]), uint32(w[1]), wrap, uint16(c.limit))
	}
	f.Fuzz(func(t *testing.T, terms []byte, need uint8, a, b uint32, wrap bool, limit uint16) {
		if len(terms) == 0 || len(terms) > 4 {
			return
		}
		lo, hi := int(a%(testDocs+1)), int(b%(testDocs+1))
		c := windowCase{terms: terms, need: int(need) % (len(terms) + 1), limit: int(limit)}
		switch {
		case !wrap:
			c.windows = [][2]int{{lo, hi}}
		case hi <= lo:
			c.windows = [][2]int{{0, hi}, {lo, testDocs}}
		default:
			c.windows = [][2]int{{0, testDocs}}
		}
		checkWindowCase(t, c)
	})
}

// countdownCtx reports cancellation from its (left+1)-th Err call on,
// which cancels an evaluation mid-flight without a second goroutine.
type countdownCtx struct {
	context.Context
	left int
}

func (c *countdownCtx) Err() error {
	if c.left <= 0 {
		return context.Canceled
	}
	c.left--
	return nil
}

func TestSearchWindowsObservesCancellation(t *testing.T) {
	pool := testPostings()
	postings := []*Bitmap{pool[3], pool[4]} // four dense containers each
	full := [][2]int{{0, testDocs}}
	_, fullScanned, err := searchWindows(context.Background(), postings, 2, full, 0)
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ids, scanned, err := searchWindows(ctx, postings, 2, full, 0)
	if !errors.Is(err, context.Canceled) || ids != nil || scanned != 0 {
		t.Fatalf("pre-cancelled: %d ids, %d scanned, err %v", len(ids), scanned, err)
	}

	// Cancelled once two containers are done: the third must not start.
	ids, scanned, err = searchWindows(&countdownCtx{Context: context.Background(), left: 2}, postings, 2, full, 0)
	if !errors.Is(err, context.Canceled) || ids != nil {
		t.Fatalf("mid-flight: %d ids, err %v", len(ids), err)
	}
	if scanned == 0 || scanned > fullScanned*2/3 {
		t.Fatalf("mid-flight: scanned %d of %d: the cancel was not seen at the next container", scanned, fullScanned)
	}

	// The same through the public entry point, for every mode.
	ix := New(0)
	ix.AddSegment(denseSegment(testDocs))
	for mode := ModeAnd; mode <= ModeThreshold; mode++ {
		q := Query{Terms: []string{"half", "third", "fifth"}, Mode: mode, MinMatch: 2}
		_, _, err := ix.SearchArc(&countdownCtx{Context: context.Background(), left: 6}, q, 0, 0, true)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("mode %d: SearchArc finished a cancelled evaluation (err %v)", mode, err)
		}
	}
}

// denseSegment indexes docs documents with ids spread evenly over the
// id ring: "half", "third", "fifth" and "tenth" hold every 2nd, 3rd,
// 5th and 10th ordinal, so the corpus size changes no term's density.
func denseSegment(docs int) *Segment {
	b := NewBuilder()
	step := ^uint64(0) / uint64(docs)
	for i := 0; i < docs; i++ {
		var terms []string
		for _, t := range []struct {
			name  string
			every int
		}{{"half", 2}, {"third", 3}, {"fifth", 5}, {"tenth", 10}} {
			if i%t.every == 0 {
				terms = append(terms, t.name)
			}
		}
		b.Add(uint64(i)*step+1, terms...)
	}
	return b.Build(fmt.Sprintf("dense-%d", docs))
}

// tileArcs returns p equal (lo, hi] arcs that tile the id ring; the
// last wraps to hi = 0.
func tileArcs(p int) [][2]uint64 {
	step := ^uint64(0)/uint64(p) + 1
	arcs := make([][2]uint64, p)
	for i := range arcs {
		arcs[i] = [2]uint64{uint64(i) * step, uint64(i+1) * step}
	}
	return arcs
}

// TestWorkConservationAcrossP is the paper's 1/p claim as an assertion:
// p legs over one whole-corpus segment together do the work of one
// full-ring query, and a top-k leg's work does not depend on the corpus.
func TestWorkConservationAcrossP(t *testing.T) {
	ctx := context.Background()
	const docs = 200_000
	ix := New(0)
	ix.AddSegment(denseSegment(docs))
	queries := []Query{
		{Terms: []string{"tenth", "third"}, Mode: ModeAnd},
		{Terms: []string{"fifth", "half", "third"}, Mode: ModeAnd},
		{Terms: []string{"tenth", "fifth"}, Mode: ModeOr},
		{Terms: []string{"tenth", "fifth", "third"}, Mode: ModeThreshold, MinMatch: 2},
	}
	for qi, q := range queries {
		want, fullScanned, err := ix.SearchArc(ctx, q, 0, 0, true)
		if err != nil || len(want) == 0 {
			t.Fatalf("query %d: full ring: %d ids, err %v", qi, len(want), err)
		}
		for _, p := range []int{1, 2, 4, 8} {
			var union []uint64
			sum := 0
			for _, arc := range tileArcs(p) {
				ids, scanned, err := ix.SearchArc(ctx, q, arc[0], arc[1], p == 1)
				if err != nil {
					t.Fatal(err)
				}
				union = append(union, ids...)
				sum += scanned
			}
			slices.Sort(union)
			if !slices.Equal(union, want) {
				t.Fatalf("query %d, p=%d: the legs' union has %d ids, the full ring %d", qi, p, len(union), len(want))
			}
			// Every entry lies in exactly one leg's windows and is examined
			// the same way there as in the full ring.
			if sum > fullScanned {
				t.Fatalf("query %d, p=%d: legs scanned %d in total, the full ring %d", qi, p, sum, fullScanned)
			}
		}
	}

	// Limit 20: 20 hits need ~60 "tenth" candidates and as many probes of
	// "third", in any corpus.
	top := Query{Terms: []string{"tenth", "third"}, Mode: ModeAnd, Limit: 20}
	const bound = 200
	for _, docs := range []int{50_000, 200_000} {
		ix := New(0)
		ix.AddSegment(denseSegment(docs))
		for _, arc := range tileArcs(8) {
			ids, scanned, err := ix.SearchArc(ctx, top, arc[0], arc[1], false)
			if err != nil || len(ids) != 20 {
				t.Fatalf("%d docs: top-20 leg returned %d ids, err %v", docs, len(ids), err)
			}
			if scanned > bound {
				t.Fatalf("%d docs: top-20 leg scanned %d entries, want <= %d whatever the corpus", docs, scanned, bound)
			}
		}
	}
}

// TestThresholdLegAllocations pins the tally scratch to the pool: a
// threshold leg allocates its few small slices, not 128 KiB of counts
// (and, being heap scratch, no longer grows the goroutine's stack).
func TestThresholdLegAllocations(t *testing.T) {
	ix := New(0)
	ix.AddSegment(denseSegment(testDocs))
	q := Query{Terms: []string{"tenth", "fifth", "third"}, Mode: ModeThreshold, MinMatch: 2, Limit: 20}
	arcs := tileArcs(8)
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		arc := arcs[i%len(arcs)]
		i++
		if ids, _, err := ix.SearchArc(context.Background(), q, arc[0], arc[1], false); err != nil || len(ids) != 20 {
			t.Fatalf("threshold leg: %d ids, err %v", len(ids), err)
		}
	})
	if allocs > 8 {
		t.Fatalf("threshold leg allocates %.1f objects per query, want <= 8", allocs)
	}
}

// TestTopKLegAllocations pins what one leg of a p = 8 fan-out with a
// top-20 cut allocates on a warm index, for the conjunction and the
// union: the result slice and a few window headers, nothing that grows
// with the arc or the corpus.
func TestTopKLegAllocations(t *testing.T) {
	ix := New(0)
	ix.AddSegment(denseSegment(testDocs))
	arcs := tileArcs(8)
	for _, q := range []Query{
		{Terms: []string{"tenth", "third"}, Mode: ModeAnd, Limit: 20},
		{Terms: []string{"tenth", "fifth", "third"}, Mode: ModeOr, Limit: 20},
	} {
		i := 0
		allocs := testing.AllocsPerRun(200, func() {
			arc := arcs[i%len(arcs)]
			i++
			if ids, _, err := ix.SearchArc(context.Background(), q, arc[0], arc[1], false); err != nil || len(ids) != 20 {
				t.Fatalf("top-20 leg: %d ids, err %v", len(ids), err)
			}
		})
		if allocs > 5 {
			t.Fatalf("mode %d top-20 leg allocates %.1f objects per query, want <= 5", q.Mode, allocs)
		}
	}
}

// BenchmarkThresholdLeg runs every leg on a fresh goroutine, as the wire
// server does: scratch on the stack would show here as a stack grow and
// copy per op.
func BenchmarkThresholdLeg(b *testing.B) {
	ix := New(0)
	ix.AddSegment(denseSegment(testDocs))
	q := Query{Terms: []string{"tenth", "fifth", "third"}, Mode: ModeThreshold, MinMatch: 2, Limit: 20}
	arcs := tileArcs(8)
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		arc := arcs[i%len(arcs)]
		done := make(chan error)
		go func() {
			_, _, err := ix.SearchArc(context.Background(), q, arc[0], arc[1], false)
			done <- err
		}()
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
