package bench

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"roar/internal/index"
)

// benchDoc is one plaintext document of the bench corpus.
type benchDoc struct {
	id    uint64
	terms []string
}

// indexCorpus builds a deterministic corpus with a skewed term
// distribution (a few common terms, a long tail of rare ones) — the
// shape where an inverted index pays off against a scan.
func indexCorpus(docs, vocab int) []benchDoc {
	rng := rand.New(rand.NewSource(1009))
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("term%03d", i)
	}
	out := make([]benchDoc, 0, docs)
	seen := map[uint64]bool{}
	for len(out) < docs {
		id := rng.Uint64()
		if seen[id] || id == 0 {
			continue
		}
		seen[id] = true
		n := 2 + rng.Intn(6)
		terms := make([]string, 0, n)
		for len(terms) < n {
			// Zipf-ish: half the picks from the 8 most common terms.
			var w string
			if rng.Intn(2) == 0 {
				w = words[rng.Intn(8)]
			} else {
				w = words[rng.Intn(vocab)]
			}
			terms = append(terms, w)
		}
		out = append(out, benchDoc{id: id, terms: terms})
	}
	return out
}

// scanMatch is the emulated scan baseline: what answering the same
// plaintext query costs without an index — touch every document, test
// its term set. This is the plaintext analogue of the PPS full-arc scan.
func scanMatch(docs []benchDoc, q index.Query) []uint64 {
	var ids []uint64
	for _, d := range docs {
		n := 0
		for _, qt := range q.Terms {
			for _, dt := range d.terms {
				if dt == qt {
					n++
					break
				}
			}
		}
		switch q.Mode {
		case index.ModeAnd:
			if n == len(q.Terms) {
				ids = append(ids, d.id)
			}
		default:
			if n >= 1 {
				ids = append(ids, d.id)
			}
		}
	}
	return ids
}

// benchQueries mixes selective AND queries with broad ORs, cycling so
// the cache sub-benches touch a rotating set of postings.
func benchQueries() []index.Query {
	return []index.Query{
		{Terms: []string{"term001", "term042"}, Mode: index.ModeAnd},
		{Terms: []string{"term003", "term117", "term250"}, Mode: index.ModeOr},
		{Terms: []string{"term005", "term006"}, Mode: index.ModeAnd},
		{Terms: []string{"term200", "term201", "term202"}, Mode: index.ModeOr},
		{Terms: []string{"term000", "term300"}, Mode: index.ModeAnd},
	}
}

// BenchmarkIndexMatch measures the roaring-bitmap index data plane:
// warm-cache and cold-open full-ring queries against the emulated scan
// the index replaces, one leg of a p = 8 fan-out (arc-1of8, and with a
// top-20 cut), plus a posting-cache budget sweep. The warm case reports
// speedup-x over the scan — the number the ISSUE acceptance pins at
// ≥10×; the arc cases are what a sub-query costs, which the full-ring
// cases cannot see.
func BenchmarkIndexMatch(b *testing.B) {
	const docs, vocab = 100_000, 400
	corpus := indexCorpus(docs, vocab)
	bld := index.NewBuilder()
	for _, d := range corpus {
		bld.Add(d.id, d.terms...)
	}
	seg := bld.Build("bench")
	path := filepath.Join(b.TempDir(), "bench.seg")
	if err := index.SaveFile(path, seg); err != nil {
		b.Fatal(err)
	}
	queries := benchQueries()
	ctx := context.Background()

	// One timed scan pass per query, for the speedup metric.
	scanStart := time.Now()
	const scanReps = 3
	for r := 0; r < scanReps; r++ {
		for _, q := range queries {
			if ids := scanMatch(corpus, q); len(ids) == 0 {
				b.Fatal("scan baseline matched nothing; corpus misconfigured")
			}
		}
	}
	scanNsPerQuery := float64(time.Since(scanStart).Nanoseconds()) / float64(scanReps*len(queries))

	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			scanMatch(corpus, queries[i%len(queries)])
		}
	})

	b.Run("warm", func(b *testing.B) {
		ix := index.New(0)
		if err := ix.AddFile(path); err != nil {
			b.Fatal(err)
		}
		defer ix.Close()
		// Touch every query once so postings are resident.
		for _, q := range queries {
			if _, _, err := ix.SearchArc(ctx, q, 0, 0, true); err != nil {
				b.Fatal(err)
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := ix.SearchArc(ctx, queries[i%len(queries)], 0, 0, true); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N)
		if perOp > 0 {
			b.ReportMetric(scanNsPerQuery/perOp, "speedup-x")
		}
	})

	// One leg of eight: the same warm index and query mix, each op
	// searching the next eighth of the id ring (the last arc wraps to 0).
	for _, limit := range []int{0, 20} {
		name := "arc-1of8"
		if limit > 0 {
			name = fmt.Sprintf("arc-1of8-top%d", limit)
		}
		b.Run(name, func(b *testing.B) {
			ix := index.New(0)
			if err := ix.AddFile(path); err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			legs := make([]index.Query, len(queries))
			for i, q := range queries {
				q.Limit = limit
				legs[i] = q
			}
			const step = 1 << 61
			leg := func(i int) {
				lo := uint64(i%8) * step
				if _, _, err := ix.SearchArc(ctx, legs[i%len(legs)], lo, lo+step, false); err != nil {
					b.Fatal(err)
				}
			}
			// Every (arc, query) pair once, so postings are resident and
			// the gate's -benchtime 20x does not time the first touch.
			for i := 0; i < 8*len(legs); i++ {
				leg(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				leg(i)
			}
		})
	}

	b.Run("cold", func(b *testing.B) {
		// Cold cache AND cold segment: every iteration re-opens the file
		// and loads postings from disk through an empty cache.
		for i := 0; i < b.N; i++ {
			ix := index.New(0)
			if err := ix.AddFile(path); err != nil {
				b.Fatal(err)
			}
			if _, _, err := ix.SearchArc(ctx, queries[i%len(queries)], 0, 0, true); err != nil {
				b.Fatal(err)
			}
			ix.Close()
		}
	})

	// Budget sweep: the same warm query mix under shrinking posting-cache
	// budgets, from everything-resident down to thrash.
	for _, budget := range []int64{4 << 20, 256 << 10, 32 << 10} {
		b.Run(fmt.Sprintf("budget-%dKB", budget>>10), func(b *testing.B) {
			ix := index.New(budget)
			if err := ix.AddFile(path); err != nil {
				b.Fatal(err)
			}
			defer ix.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := ix.SearchArc(ctx, queries[i%len(queries)], 0, 0, true); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := ix.Cache().Stats()
			if st.Bytes > st.Budget {
				b.Fatalf("cache residency %d exceeds budget %d", st.Bytes, st.Budget)
			}
			total := st.Hits + st.Misses
			if total > 0 {
				b.ReportMetric(float64(st.Hits)/float64(total), "hit-ratio")
			}
		})
	}
}
