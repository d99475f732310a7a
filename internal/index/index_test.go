package index

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"
)

// corpus is the reference model: doc id → term set.
type corpus map[uint64]map[string]bool

// genCorpus produces n docs with uniformly random uint64 ids (the ROAR
// id distribution) drawing terms from a small vocabulary.
func genCorpus(rng *rand.Rand, n, vocab, termsPerDoc int) corpus {
	c := make(corpus, n)
	for len(c) < n {
		id := rng.Uint64()
		terms := make(map[string]bool, termsPerDoc)
		for len(terms) < termsPerDoc {
			terms[fmt.Sprintf("t%03d", rng.Intn(vocab))] = true
		}
		c[id] = terms
	}
	return c
}

func buildSegment(c corpus, name string) *Segment {
	b := NewBuilder()
	for id, terms := range c {
		tl := make([]string, 0, len(terms))
		for t := range terms {
			tl = append(tl, t)
		}
		b.Add(id, tl...)
	}
	return b.Build(name)
}

// bruteArc evaluates the query by brute force over the model, honoring
// the (lo, hi] arc (wrap when lo >= hi and !full) and the limit.
func bruteArc(c corpus, q Query, lo, hi uint64, full bool) []uint64 {
	minMatch := q.MinMatch
	switch q.Mode {
	case ModeAnd:
		minMatch = len(q.Terms)
	case ModeOr:
		minMatch = 1
	default:
		if minMatch < 1 {
			minMatch = 1
		}
	}
	var ids []uint64
	for id, terms := range c {
		if !full {
			inArc := false
			if lo < hi {
				inArc = id > lo && id <= hi
			} else {
				inArc = id > lo || id <= hi
			}
			if !inArc {
				continue
			}
		}
		n := 0
		for _, t := range q.Terms {
			if terms[t] {
				n++
			}
		}
		if n >= minMatch {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	if q.Limit > 0 && len(ids) > q.Limit {
		ids = ids[:q.Limit]
	}
	return ids
}

func sameIDs(t *testing.T, label string, got, want []uint64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d ids want %d", label, len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("%s: got[%d]=%d want %d", label, i, got[i], want[i])
		}
	}
}

func TestSearchMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	c := genCorpus(rng, 3000, 40, 6)
	ix := New(0)
	ix.AddSegment(buildSegment(c, "mem"))

	ctx := context.Background()
	for trial := 0; trial < 300; trial++ {
		nTerms := 1 + rng.Intn(4)
		q := Query{Mode: Mode(rng.Intn(3))}
		for i := 0; i < nTerms; i++ {
			q.Terms = append(q.Terms, fmt.Sprintf("t%03d", rng.Intn(45))) // some absent terms
		}
		if q.Mode == ModeThreshold {
			q.MinMatch = 1 + rng.Intn(nTerms+1) // len(Terms)+1 matches nothing
		}
		if trial%3 == 0 {
			q.Limit = 1 + rng.Intn(20)
		}
		lo, hi := rng.Uint64(), rng.Uint64()
		full := trial%5 == 0
		got, scanned, err := ix.SearchArc(ctx, q, lo, hi, full)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := bruteArc(c, q, lo, hi, full)
		sameIDs(t, fmt.Sprintf("trial %d (mode %d lo %d hi %d full %v)", trial, q.Mode, lo, hi, full), got, want)
		if len(got) > 0 && scanned == 0 {
			t.Fatalf("trial %d: results with zero scanned work", trial)
		}
	}
}

func TestSearchMultiSegmentDedup(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	c := genCorpus(rng, 800, 20, 5)
	// Two overlapping segments: replica pushes may duplicate docs.
	half := make(corpus)
	for id, terms := range c {
		if id%3 != 0 {
			half[id] = terms
		}
	}
	ix := New(0)
	ix.AddSegment(buildSegment(c, "full"))
	ix.AddSegment(buildSegment(half, "replica"))

	q := Query{Terms: []string{"t001"}, Mode: ModeOr}
	got, _, err := ix.SearchArc(context.Background(), q, 0, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	sameIDs(t, "dedup", got, bruteArc(c, q, 0, 0, true))
}

func TestSearchValidation(t *testing.T) {
	ix := New(0)
	if _, _, err := ix.SearchArc(context.Background(), Query{}, 0, 0, true); err == nil {
		t.Fatal("empty query accepted")
	}
	if _, _, err := ix.SearchArc(context.Background(), Query{Terms: []string{"x"}, Mode: 9}, 0, 0, true); err == nil {
		t.Fatal("bad mode accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ix.AddSegment(buildSegment(corpus{1: {"x": true}}, "m"))
	if _, _, err := ix.SearchArc(ctx, Query{Terms: []string{"x"}}, 0, 0, true); err == nil {
		t.Fatal("cancelled context not observed")
	}
}

func TestSegmentFileRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	c := genCorpus(rng, 2000, 30, 5)
	mem := buildSegment(c, "mem")

	path := filepath.Join(t.TempDir(), "seg.roar")
	if err := SaveFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	if disk.Docs() != mem.Docs() {
		t.Fatalf("docs %d want %d", disk.Docs(), mem.Docs())
	}
	if len(disk.Terms()) != len(mem.Terms()) {
		t.Fatalf("terms %d want %d", len(disk.Terms()), len(mem.Terms()))
	}
	for _, term := range mem.Terms() {
		if disk.Cardinality(term) != mem.Cardinality(term) {
			t.Fatalf("term %q card %d want %d", term, disk.Cardinality(term), mem.Cardinality(term))
		}
	}

	// Same searches through both — the disk postings load via the cache.
	memIx, diskIx := New(0), New(1<<20)
	memIx.AddSegment(mem)
	diskIx.AddSegment(disk)
	for trial := 0; trial < 100; trial++ {
		q := Query{
			Terms: []string{fmt.Sprintf("t%03d", rng.Intn(32)), fmt.Sprintf("t%03d", rng.Intn(32))},
			Mode:  Mode(rng.Intn(3)),
		}
		if q.Mode == ModeThreshold {
			q.MinMatch = 1 + rng.Intn(2)
		}
		lo, hi := rng.Uint64(), rng.Uint64()
		a, _, err := memIx.SearchArc(context.Background(), q, lo, hi, false)
		if err != nil {
			t.Fatal(err)
		}
		b, _, err := diskIx.SearchArc(context.Background(), q, lo, hi, false)
		if err != nil {
			t.Fatal(err)
		}
		sameIDs(t, fmt.Sprintf("trial %d", trial), b, a)
	}
	if st := diskIx.Cache().Stats(); st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache unused: %+v", st)
	}
}

func TestEncodeDecodeSegment(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	c := genCorpus(rng, 500, 15, 4)
	mem := buildSegment(c, "mem")
	blob, err := EncodeSegment(mem)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSegment(blob)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Docs() != mem.Docs() || len(dec.Terms()) != len(mem.Terms()) {
		t.Fatalf("decode mismatch: %d/%d docs, %d/%d terms",
			dec.Docs(), mem.Docs(), len(dec.Terms()), len(mem.Terms()))
	}
	for _, term := range mem.Terms() {
		want := mem.mem[term]
		got := dec.mem[term]
		if got.Cardinality() != want.Cardinality() {
			t.Fatalf("term %q card %d want %d", term, got.Cardinality(), want.Cardinality())
		}
		got.Iterate(func(v uint64) bool {
			if !want.Contains(v) {
				t.Fatalf("term %q stray ordinal %d", term, v)
			}
			return true
		})
	}

	// Strictness: trailing garbage, truncations, and bit flips must all
	// fail cleanly, never panic.
	if _, err := DecodeSegment(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	for cut := 0; cut < len(blob); cut += 37 {
		if _, err := DecodeSegment(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(blob); i += 53 {
		mut := append([]byte(nil), blob...)
		mut[i] ^= 0x40
		dec, err := DecodeSegment(mut) // may legally succeed; must not panic
		_ = dec
		_ = err
	}
}

func TestCacheBudgetInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	c := genCorpus(rng, 4000, 60, 6)
	mem := buildSegment(c, "mem")
	path := filepath.Join(t.TempDir(), "seg.roar")
	if err := SaveFile(path, mem); err != nil {
		t.Fatal(err)
	}
	disk, err := OpenFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()

	// Budget fits only a handful of postings, so Gets must evict.
	var maxPosting int64
	for _, term := range mem.Terms() {
		if n := int64(mem.mem[term].MemBytes()); n > maxPosting {
			maxPosting = n
		}
	}
	cache := NewCache(3 * maxPosting)
	for trial := 0; trial < 2000; trial++ {
		term := fmt.Sprintf("t%03d", rng.Intn(60))
		bm, err := cache.Get(disk, term)
		if err != nil {
			t.Fatal(err)
		}
		if bm == nil {
			t.Fatalf("posting %q missing", term)
		}
		st := cache.Stats()
		if st.Bytes > st.Budget {
			t.Fatalf("trial %d: residency %d exceeds budget %d", trial, st.Bytes, st.Budget)
		}
	}
	st := cache.Stats()
	if st.Evictions == 0 || st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache did not cycle: %+v", st)
	}

	// A posting larger than the whole budget is served but never cached.
	tiny := NewCache(1)
	if _, err := tiny.Get(disk, mem.Terms()[0]); err != nil {
		t.Fatal(err)
	}
	if st := tiny.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("oversized posting was cached: %+v", st)
	}

	// DropSegment releases everything.
	cache.DropSegment(disk)
	if st := cache.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("DropSegment left residue: %+v", st)
	}
}

func TestTokenizeAndNgrams(t *testing.T) {
	got := Tokenize("Hello, World-2026! go_go")
	want := []string{"hello", "world", "2026", "go", "go"}
	if len(got) != len(want) {
		t.Fatalf("tokenize: %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("tokenize[%d] = %q want %q", i, got[i], want[i])
		}
	}
	if g := Ngrams("abcab", 3); len(g) != 3 || g[0] != "abc" || g[1] != "bca" || g[2] != "cab" {
		t.Fatalf("ngrams: %v", g)
	}
	if g := Ngrams("ab", 3); len(g) != 1 || g[0] != "ab" {
		t.Fatalf("short ngrams: %v", g)
	}
}
