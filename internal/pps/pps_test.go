package pps

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"roar/internal/binfmt"
)

func TestMasterKeyDerivation(t *testing.T) {
	k := TestKey(1)
	a := k.Derive("x")
	b := k.Derive("y")
	if bytes.Equal(a, b) {
		t.Error("different domains must derive different keys")
	}
	if !bytes.Equal(a, k.Derive("x")) {
		t.Error("derivation must be deterministic")
	}
	k2 := TestKey(2)
	if bytes.Equal(a, k2.Derive("x")) {
		t.Error("different master keys must derive different sub-keys")
	}
}

func TestNewMasterKeyRandom(t *testing.T) {
	a, err := NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewMasterKey()
	if err != nil {
		t.Fatal(err)
	}
	if a == b {
		t.Error("two fresh keys should differ")
	}
}

func TestPermutationIsBijection(t *testing.T) {
	p := permutation([]byte("key"), 1000)
	seen := make([]bool, 1000)
	for _, v := range p {
		if v < 0 || v >= 1000 || seen[v] {
			t.Fatalf("not a permutation at value %d", v)
		}
		seen[v] = true
	}
	inv := invert(p)
	for i, v := range p {
		if inv[v] != i {
			t.Fatal("inverse permutation wrong")
		}
	}
}

func TestEqualScheme(t *testing.T) {
	s := NewEqual(TestKey(3))
	md, err := s.EncryptMetadata("hello")
	if err != nil {
		t.Fatal(err)
	}
	if !MatchEqual(s.EncryptQuery("hello"), md) {
		t.Error("matching value should match")
	}
	if MatchEqual(s.EncryptQuery("world"), md) {
		t.Error("different value must not match")
	}
	// Same plaintext encrypts to different metadata (semantic security
	// shape): nonces differ.
	md2, _ := s.EncryptMetadata("hello")
	if bytes.Equal(md.Nonce, md2.Nonce) || bytes.Equal(md.Tag, md2.Tag) {
		t.Error("two encryptions of the same value should differ")
	}
	if !CoverEqual(s.EncryptQuery("a"), s.EncryptQuery("a")) {
		t.Error("identical queries cover each other")
	}
	if CoverEqual(s.EncryptQuery("a"), s.EncryptQuery("b")) {
		t.Error("different queries must not cover")
	}
}

func TestEqualWrongKey(t *testing.T) {
	s1 := NewEqual(TestKey(4))
	s2 := NewEqual(TestKey(5))
	md, _ := s1.EncryptMetadata("v")
	if MatchEqual(s2.EncryptQuery("v"), md) {
		t.Error("query under a different key must not match")
	}
}

func TestBloomKeyword(t *testing.T) {
	s := NewBloom(TestKey(6), DefaultBloomConfig())
	md, err := s.EncryptMetadata([]string{"alpha", "beta", "gamma"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"alpha", "beta", "gamma"} {
		if !s.MatchBloom(s.EncryptQuery(w), md) {
			t.Errorf("stored keyword %q should match", w)
		}
	}
	misses := 0
	for i := 0; i < 1000; i++ {
		if !s.MatchBloom(s.EncryptQuery(fmt.Sprintf("absent-%d", i)), md) {
			misses++
		}
	}
	if misses < 995 { // fp rate should be ≈1e-5 at this load
		t.Errorf("too many false positives: %d/1000 misses", misses)
	}
}

func TestBloomFalsePositiveRateEstimate(t *testing.T) {
	s := NewBloom(TestKey(7), DefaultBloomConfig())
	fp := s.FalsePositiveRate(50)
	if fp > 1e-4 || fp <= 0 {
		t.Errorf("fp rate at design load = %v, want ~1e-5", fp)
	}
}

func TestBloomTooManyWords(t *testing.T) {
	s := NewBloom(TestKey(8), BloomConfig{MaxWords: 4, Hashes: 17, BitsPerWord: 25})
	words := make([]string, 100)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	if _, err := s.EncryptMetadata(words); err == nil {
		t.Error("overfull filter should be rejected")
	}
}

func TestBloomDifferentNonces(t *testing.T) {
	s := NewBloom(TestKey(9), DefaultBloomConfig())
	a, _ := s.EncryptMetadata([]string{"x"})
	b, _ := s.EncryptMetadata([]string{"x"})
	if bytes.Equal(a.Nonce, b.Nonce) {
		t.Error("nonces must differ between encryptions")
	}
	if bytes.Equal(a.Filter, b.Filter) {
		t.Error("blinded filters of the same document should differ")
	}
}

func TestBloomCover(t *testing.T) {
	s := NewBloom(TestKey(10), DefaultBloomConfig())
	if !CoverBloom(s.EncryptQuery("a"), s.EncryptQuery("a")) {
		t.Error("same-word trapdoors cover")
	}
	if CoverBloom(s.EncryptQuery("a"), s.EncryptQuery("b")) {
		t.Error("different trapdoors must not cover")
	}
}

func TestBloomSizes(t *testing.T) {
	s := NewBloom(TestKey(11), DefaultBloomConfig())
	if s.MBits() != 1250 {
		t.Errorf("MBits = %d, want 50*25", s.MBits())
	}
	md, _ := s.EncryptMetadata([]string{"x"})
	if md.Bytes() < 150 || md.Bytes() > 200 {
		t.Errorf("metadata bytes = %d, want ≈173 (16B nonce + 157B filter)", md.Bytes())
	}
	if qb := s.QueryBytes(); qb < 20 || qb > 30 {
		t.Errorf("query bytes = %d, want ≈23 (17 positions × 11 bits)", qb)
	}
}

func TestDictionaryScheme(t *testing.T) {
	words := []string{"apple", "banana", "cherry", "date", "elderberry"}
	s, err := NewDictionary(TestKey(12), words)
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.EncryptMetadata([]string{"banana", "date"})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range words {
		q, err := s.EncryptQuery(w)
		if err != nil {
			t.Fatal(err)
		}
		want := w == "banana" || w == "date"
		if got := MatchDict(q, md); got != want {
			t.Errorf("MatchDict(%q) = %v, want %v", w, got, want)
		}
	}
	if _, err := s.EncryptQuery("missing"); err == nil {
		t.Error("unknown query word should error")
	}
	if _, err := s.EncryptMetadata([]string{"missing"}); err == nil {
		t.Error("unknown metadata word should error")
	}
}

func TestDictionaryNoFalsePositives(t *testing.T) {
	// Dictionary is exact: across many documents and words, zero errors.
	n := 200
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("word%03d", i)
	}
	s, err := NewDictionary(TestKey(13), words)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for doc := 0; doc < 20; doc++ {
		present := map[string]bool{}
		var ws []string
		for k := 0; k < 10; k++ {
			w := words[rng.Intn(n)]
			if !present[w] {
				present[w] = true
				ws = append(ws, w)
			}
		}
		md, err := s.EncryptMetadata(ws)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range words {
			q, _ := s.EncryptQuery(w)
			if got := MatchDict(q, md); got != present[w] {
				t.Fatalf("doc %d word %q: got %v want %v", doc, w, got, present[w])
			}
		}
	}
}

func TestDictionaryDuplicateWordRejected(t *testing.T) {
	if _, err := NewDictionary(TestKey(14), []string{"a", "a"}); err == nil {
		t.Error("duplicate dictionary words should be rejected")
	}
	if _, err := NewDictionary(TestKey(14), nil); err == nil {
		t.Error("empty dictionary should be rejected")
	}
}

func TestDictionaryBitmapLooksRandom(t *testing.T) {
	// Blinding should set roughly half the bits regardless of content.
	n := 1024
	words := make([]string, n)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	s, _ := NewDictionary(TestKey(15), words)
	md, _ := s.EncryptMetadata(nil) // empty document
	ones := 0
	for i := 0; i < n; i++ {
		if getBit(md.Bitmap, i) {
			ones++
		}
	}
	if ones < n/3 || ones > 2*n/3 {
		t.Errorf("blinded bitmap has %d/%d ones; not pseudorandom", ones, n)
	}
}

func TestExponentialPoints(t *testing.T) {
	pts := ExponentialPoints(1e9)
	if len(pts) < 80 || len(pts) > 110 {
		t.Errorf("got %d points, want ~100 per §5.5.3", len(pts))
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] <= pts[i-1] {
			t.Fatal("points must be strictly increasing")
		}
	}
	if pts[0] != 1 || pts[len(pts)-1] != 1e9 {
		t.Errorf("range = [%g, %g]", pts[0], pts[len(pts)-1])
	}
}

func TestInequalityScheme(t *testing.T) {
	s, err := NewInequality(TestKey(16), LinearPoints(0, 1000, 101)) // points every 10
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.EncryptMetadata(457)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		op   IneqOp
		v    float64
		want bool
	}{
		{Greater, 100, true},  // 457 > 100
		{Greater, 450, true},  // 457 > 450
		{Greater, 460, false}, // 457 < 460
		{Less, 900, true},
		{Less, 460, true},
		{Less, 450, false},
	}
	for _, c := range cases {
		q := s.EncryptQuery(c.op, c.v)
		if got := s.Match(q, md); got != c.want {
			t.Errorf("457 %s %g = %v, want %v (approx point %g)", c.op, c.v, got, c.want, q.ApproxPoint)
		}
	}
}

func TestInequalityApproximation(t *testing.T) {
	s, _ := NewInequality(TestKey(17), []float64{0, 5, 10})
	q := s.EncryptQuery(Greater, 7)
	if q.ApproxPoint != 5 {
		t.Errorf("nearest point to 7 = %g, want 5", q.ApproxPoint)
	}
	q = s.EncryptQuery(Greater, 8)
	if q.ApproxPoint != 10 {
		t.Errorf("nearest point to 8 = %g, want 10", q.ApproxPoint)
	}
	q = s.EncryptQuery(Less, -100)
	if q.ApproxPoint != 0 {
		t.Errorf("clamping below = %g, want 0", q.ApproxPoint)
	}
	q = s.EncryptQuery(Less, 100)
	if q.ApproxPoint != 10 {
		t.Errorf("clamping above = %g, want 10", q.ApproxPoint)
	}
}

func TestRangeScheme(t *testing.T) {
	parts := DefaultRangePartitions(0, 1024, 5)
	s, err := NewRange(TestKey(18), parts)
	if err != nil {
		t.Fatal(err)
	}
	md, err := s.EncryptMetadata(300)
	if err != nil {
		t.Fatal(err)
	}
	// A query cell covering 300 matches.
	q := s.EncryptQuery(256, 512)
	if !q.Approx.Contains(300) {
		t.Fatalf("approx cell %v should contain 300", q.Approx)
	}
	if !s.Match(q, md) {
		t.Error("range containing the value should match")
	}
	// A query cell away from 300 does not.
	q2 := s.EncryptQuery(600, 700)
	if q2.Approx.Contains(300) {
		t.Skip("approximation unexpectedly covers 300")
	}
	if s.Match(q2, md) {
		t.Error("range excluding the value must not match")
	}
}

func TestRangeApproximationQuality(t *testing.T) {
	parts := DefaultRangePartitions(0, 1024, 6)
	s, _ := NewRange(TestKey(19), parts)
	q := s.EncryptQuery(100, 200)
	// Best cell should approximate [100,200) within a coarse cell width.
	if q.Approx.Hi-q.Approx.Lo > 512 {
		t.Errorf("approx cell %v far too coarse for [100,200)", q.Approx)
	}
}

func TestUniformPartitionCoversDomain(t *testing.T) {
	p := UniformPartition(0, 100, 7, 3)
	for v := 0.0; v < 100; v += 0.5 {
		n := 0
		for _, c := range p {
			if c.Contains(v) {
				n++
			}
		}
		if n != 1 {
			t.Fatalf("value %g in %d cells, want exactly 1", v, n)
		}
	}
}

func TestRankedScheme(t *testing.T) {
	s, err := NewRanked(TestKey(20), DefaultRankBuckets(), 50)
	if err != nil {
		t.Fatal(err)
	}
	kws := make([]string, 30)
	for i := range kws {
		kws[i] = fmt.Sprintf("kw%02d", i)
	}
	md, err := s.EncryptMetadata(kws)
	if err != nil {
		t.Fatal(err)
	}
	// kw00 is rank 0: in top-1, top-5, top-10, top-25.
	for _, b := range []int{1, 5, 10, 25} {
		q, err := s.EncryptQuery("kw00", b)
		if err != nil {
			t.Fatal(err)
		}
		if !s.Match(q, md) {
			t.Errorf("kw00 should be within top %d", b)
		}
	}
	// kw07 is rank 7: in top-10 and top-25 but not top-1 or top-5.
	for _, c := range []struct {
		b    int
		want bool
	}{{1, false}, {5, false}, {10, true}, {25, true}} {
		q, _ := s.EncryptQuery("kw07", c.b)
		if got := s.Match(q, md); got != c.want {
			t.Errorf("kw07 within top %d = %v, want %v", c.b, got, c.want)
		}
	}
	// Unranked query matches any stored keyword.
	q, _ := s.EncryptQuery("kw29", 0)
	if !s.Match(q, md) {
		t.Error("plain keyword query should match")
	}
	if _, err := s.EncryptQuery("kw00", 7); err == nil {
		t.Error("unconfigured bucket should error")
	}
}

func testEncoder(t testing.TB) *Encoder {
	t.Helper()
	return NewEncoder(TestKey(21), EncoderConfig{})
}

func testDoc(id uint64) Document {
	return Document{
		ID:       id,
		Path:     "/home/costin/papers/roar.pdf",
		Size:     123456,
		Modified: time.Date(2008, 6, 15, 0, 0, 0, 0, time.UTC),
		Keywords: []string{"rendezvous", "ring", "search", "distributed", "partitioning"},
	}
}

func TestEncoderRoundTrip(t *testing.T) {
	e := testEncoder(t)
	md, err := e.EncryptDocument(testDoc(42))
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMatcher(e.ServerParams())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		pred Predicate
		want bool
	}{
		{"keyword hit", Predicate{Kind: Keyword, Word: "ring"}, true},
		{"keyword miss", Predicate{Kind: Keyword, Word: "database"}, false},
		{"ranked hit", Predicate{Kind: KeywordRanked, Word: "rendezvous", Rank: 1}, true},
		{"ranked miss", Predicate{Kind: KeywordRanked, Word: "search", Rank: 1}, false},
		{"ranked top5", Predicate{Kind: KeywordRanked, Word: "search", Rank: 5}, true},
		{"path hit", Predicate{Kind: PathComponent, Word: "papers"}, true},
		{"path miss", Predicate{Kind: PathComponent, Word: "music"}, false},
		{"size greater", Predicate{Kind: SizeGreater, Value: 1000}, true},
		{"size not greater", Predicate{Kind: SizeGreater, Value: 1e9}, false},
		{"size less", Predicate{Kind: SizeLess, Value: 1e9}, true},
		{"date after", Predicate{Kind: DateAfter, Value: 365}, true},    // after 2006
		{"date before", Predicate{Kind: DateBefore, Value: 5000}, true}, // before ~2018
	}
	for _, c := range cases {
		bq, err := e.EncryptPredicate(c.pred)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := m.MatchOne(bq, md.BloomMetadata); got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

// TestEncryptPredicateWithoutPoints: an encoder configured with no size
// reference points (SizePoints empty, not nil) rejects a size predicate
// with an error rather than a panic, still encrypts documents, and still
// answers date predicates.
func TestEncryptPredicateWithoutPoints(t *testing.T) {
	e := NewEncoder(TestKey(21), EncoderConfig{SizePoints: []float64{}})
	for _, kind := range []PredKind{SizeGreater, SizeLess} {
		if _, err := e.EncryptPredicate(Predicate{Kind: kind, Value: 1000}); err == nil || !strings.Contains(err.Error(), "size reference points") {
			t.Errorf("kind %d: error %v, want no size reference points", kind, err)
		}
	}
	md, err := e.EncryptDocument(testDoc(1))
	if err != nil {
		t.Fatal(err)
	}
	m, _ := NewMatcher(e.ServerParams())
	q, err := e.EncryptPredicate(Predicate{Kind: DateAfter, Value: 365})
	if err != nil || !m.MatchOne(q, md.BloomMetadata) {
		t.Errorf("date after 2006 on a 2008 document: match %v, error %v", err == nil && m.MatchOne(q, md.BloomMetadata), err)
	}
}

// TestEncodedMarshalRoundTrip: an encrypted document survives the one
// record form, and truncations error rather than panic or decode.
func TestEncodedMarshalRoundTrip(t *testing.T) {
	e := testEncoder(t)
	md, err := e.EncryptDocument(testDoc(7))
	if err != nil {
		t.Fatal(err)
	}
	b := AppendRecord(nil, md)
	r := binfmt.NewReader(b)
	var back Encoded
	DecodeRecord(&r, &back)
	if err := r.Finish("record"); err != nil {
		t.Fatal(err)
	}
	if back.ID != md.ID || !bytes.Equal(back.Nonce, md.Nonce) || !bytes.Equal(back.Filter, md.Filter) {
		t.Error("marshal round trip mismatch")
	}
	// Truncations must error, not panic.
	for cut := 0; cut < len(b); cut += 7 {
		r := binfmt.NewReader(b[:cut])
		var e2 Encoded
		DecodeRecord(&r, &e2)
		if r.Finish("record") == nil {
			t.Fatalf("truncation at %d silently accepted", cut)
		}
	}
}

func TestMultiPredicateAndOr(t *testing.T) {
	e := testEncoder(t)
	m, _ := NewMatcher(e.ServerParams())
	md, _ := e.EncryptDocument(testDoc(1))
	and, err := e.EncryptQuery(And,
		Predicate{Kind: Keyword, Word: "ring"},
		Predicate{Kind: Keyword, Word: "search"})
	if err != nil {
		t.Fatal(err)
	}
	if !m.NewRun(and).Match(md.BloomMetadata) {
		t.Error("AND of two present keywords should match")
	}
	and2, _ := e.EncryptQuery(And,
		Predicate{Kind: Keyword, Word: "ring"},
		Predicate{Kind: Keyword, Word: "absent"})
	if m.NewRun(and2).Match(md.BloomMetadata) {
		t.Error("AND with one absent keyword must not match")
	}
	or, _ := e.EncryptQuery(Or,
		Predicate{Kind: Keyword, Word: "absent"},
		Predicate{Kind: Keyword, Word: "ring"})
	if !m.NewRun(or).Match(md.BloomMetadata) {
		t.Error("OR with one present keyword should match")
	}
	empty := Query{Op: And}
	if m.NewRun(empty).Match(md.BloomMetadata) {
		t.Error("empty query matches nothing")
	}
}

func TestDynamicPredicateOrdering(t *testing.T) {
	e := testEncoder(t)
	m, _ := NewMatcher(e.ServerParams())
	// Corpus: "common" appears in every document, "rare" in none.
	var mds []Encoded
	for i := 0; i < 500; i++ {
		doc := Document{ID: uint64(i), Path: "/d/f", Size: 10, Modified: time.Unix(1e9, 0),
			Keywords: []string{"common", fmt.Sprintf("unique%d", i)}}
		md, err := e.EncryptDocument(doc)
		if err != nil {
			t.Fatal(err)
		}
		mds = append(mds, md)
	}
	q, _ := e.EncryptQuery(And,
		Predicate{Kind: Keyword, Word: "common"},
		Predicate{Kind: Keyword, Word: "rare"})
	run := m.NewRun(q)
	matches := 0
	for _, md := range mds {
		if run.Match(md.BloomMetadata) {
			matches++
		}
	}
	if matches != 0 {
		t.Errorf("got %d matches, want 0", matches)
	}
	if run.Sampled() < SelectivitySamples {
		t.Fatalf("sampled %d, want >= %d", run.Sampled(), SelectivitySamples)
	}
	order := run.Order()
	if order == nil {
		t.Fatal("order should have settled")
	}
	// For AND, the selective predicate ("rare", index 1) must come first.
	if order[0] != 1 {
		t.Errorf("AND order = %v, want rare (1) first", order)
	}
}

func TestDynamicOrderingOr(t *testing.T) {
	e := testEncoder(t)
	m, _ := NewMatcher(e.ServerParams())
	var mds []Encoded
	for i := 0; i < SelectivitySamples+10; i++ {
		md, err := e.EncryptDocument(Document{ID: uint64(i), Path: "/x",
			Size: 1, Modified: time.Unix(1e9, 0), Keywords: []string{"everywhere"}})
		if err != nil {
			t.Fatal(err)
		}
		mds = append(mds, md)
	}
	q, _ := e.EncryptQuery(Or,
		Predicate{Kind: Keyword, Word: "nowhere"},
		Predicate{Kind: Keyword, Word: "everywhere"})
	run := m.NewRun(q)
	for _, md := range mds {
		if !run.Match(md.BloomMetadata) {
			t.Fatal("OR should match every doc")
		}
	}
	if order := run.Order(); order == nil || order[0] != 1 {
		t.Errorf("OR order = %v, want everywhere (1) first", run.Order())
	}
}

func TestMatchAll(t *testing.T) {
	e := testEncoder(t)
	m, _ := NewMatcher(e.ServerParams())
	var mds []Encoded
	for i := 0; i < 50; i++ {
		kw := "even"
		if i%2 == 1 {
			kw = "odd"
		}
		md, _ := e.EncryptDocument(Document{ID: uint64(i), Path: "/x", Size: 1,
			Modified: time.Unix(1e9, 0), Keywords: []string{kw}})
		mds = append(mds, md)
	}
	q, _ := e.EncryptQuery(And, Predicate{Kind: Keyword, Word: "odd"})
	ids := m.MatchAll(q, mds)
	if len(ids) != 25 {
		t.Fatalf("got %d matches, want 25", len(ids))
	}
	for _, id := range ids {
		if id%2 != 1 {
			t.Fatalf("id %d should not match", id)
		}
	}
}

func TestMatcherRejectsBadParams(t *testing.T) {
	if _, err := NewMatcher(ServerParams{}); err == nil {
		t.Error("zero MBits should be rejected")
	}
}

func TestBandwidthModel(t *testing.T) {
	// PPS: 500fu + 2500fq, from the paper.
	if got := PPSBandwidth(10, 4); got != 500*10+2500*4 {
		t.Errorf("PPSBandwidth = %v", got)
	}
	// Paper's qualitative results: ~8x more bandwidth for the index
	// solution with non-local updates at high frequencies; ~2x when 90%
	// of updates are local.
	r0 := BandwidthRatio(1000, 1000, 0)
	if r0 < 4 || r0 > 12 {
		t.Errorf("ratio(0%% local) = %v, want ~8", r0)
	}
	r90 := BandwidthRatio(1000, 1000, 0.9)
	if r90 < 1 || r90 > 4 {
		t.Errorf("ratio(90%% local) = %v, want ~2", r90)
	}
	if r90 >= r0 {
		t.Error("local updates must reduce the index solution's cost")
	}
}

func TestOptimalDeltaMax(t *testing.T) {
	dm := OptimalDeltaMax(100, 100, 0)
	if dm <= 1 {
		t.Errorf("optimal deltaMax = %d; chains should help at equal rates", dm)
	}
	// With extremely rare queries, longer chains are better than with
	// frequent queries.
	dmRare := OptimalDeltaMax(1000, 1, 0)
	if dmRare < dm {
		t.Errorf("rare queries should prefer longer chains: %d < %d", dmRare, dm)
	}
}

func TestBandwidthGrid(t *testing.T) {
	g := BandwidthGrid([]float64{1, 10, 100}, 0)
	if len(g) != 3 || len(g[0]) != 3 {
		t.Fatal("grid shape wrong")
	}
	for _, row := range g {
		for _, v := range row {
			if v <= 0 {
				t.Fatal("ratios must be positive")
			}
		}
	}
}

func BenchmarkBloomMatchMiss(b *testing.B) {
	s := NewBloom(TestKey(100), DefaultBloomConfig())
	md, _ := s.EncryptMetadata([]string{"present"})
	q := s.EncryptQuery("absent")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchBloom(q, md)
	}
}

func BenchmarkBloomMatchHit(b *testing.B) {
	s := NewBloom(TestKey(101), DefaultBloomConfig())
	md, _ := s.EncryptMetadata([]string{"present"})
	q := s.EncryptQuery("present")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.MatchBloom(q, md)
	}
}

func BenchmarkDictionaryMatch(b *testing.B) {
	words := make([]string, 1000)
	for i := range words {
		words[i] = fmt.Sprintf("w%d", i)
	}
	s, _ := NewDictionary(TestKey(102), words)
	md, _ := s.EncryptMetadata(words[:10])
	q, _ := s.EncryptQuery("w5")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		MatchDict(q, md)
	}
}

// BenchmarkEncryptDocument is one document's encryption: "default" in
// the default configuration on the best path, and "slim/<path>" in the
// slim one (the harness corpora's, whose loads set-up times measure) on
// each path this build and CPU can encrypt on. "avx512" is the lane
// path: a slim document's 15 words take one hmac16el8 call and one
// SHA-NI evaluation each for their 17 sub-key digests, and its 1 207
// elements (952 of them signature elements, copied from their slots)
// are blinded 16 per hmac16 call, which is ~60 % of its time; it makes
// one allocation, the nonce and filter.
func BenchmarkEncryptDocument(b *testing.B) {
	run := func(b *testing.B, e *Encoder) {
		doc := testDoc(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.EncryptDocument(doc); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("default", func(b *testing.B) { run(b, NewEncoder(TestKey(103), EncoderConfig{})) })
	for name, p := range scanPaths() {
		b.Run("slim/"+name, func(b *testing.B) {
			e := NewEncoder(TestKey(103), slimConfig())
			encodeOnPath(e, name, p)
			run(b, e)
		})
	}
}
