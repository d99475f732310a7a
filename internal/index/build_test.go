package index

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenBuild is a seeded build that exercises every Builder rule: ids
// re-added with new terms (and one re-added with none), a term named
// twice in one document, a document with no terms, a container past
// 4 096 values ("hot", in about half of 12 000 docs), and a caller that
// reuses its term slice between Adds.
func goldenBuild() *Segment {
	rng := rand.New(rand.NewSource(66))
	b := NewBuilder()
	ids := make([]uint64, 0, 12000)
	terms := make([]string, 0, 8)
	for i := 0; i < 12000; i++ {
		id := rng.Uint64()
		ids = append(ids, id)
		terms = terms[:0]
		if i%2 == 0 {
			terms = append(terms, "hot")
		}
		for j := rng.Intn(5); j > 0; j-- {
			terms = append(terms, fmt.Sprintf("t%02d", rng.Intn(40)))
		}
		b.Add(id, terms...)
	}
	b.Add(ids[3], "hot", "t01", "hot")
	b.Add(ids[7])
	b.Add(rng.Uint64())
	for _, id := range ids[100:400] {
		terms = append(terms[:0], "re", fmt.Sprintf("t%02d", rng.Intn(40)))
		b.Add(id, terms...)
	}
	return b.Build("golden")
}

// TestBuildEncodesGolden pins the segment bytes a seeded build encodes
// to, so any rewrite of the Builder must keep the format byte for byte.
func TestBuildEncodesGolden(t *testing.T) {
	seg := goldenBuild()
	if seg.Docs() != 12001 {
		t.Fatalf("built %d docs, want 12 001 (12 000 + one fresh; re-adds replace)", seg.Docs())
	}
	if c := seg.mem["hot"].cs[0]; c.words == nil {
		t.Fatalf("hot's container holds %d values in array form, want words form", c.card)
	}
	blob, err := EncodeSegment(seg)
	if err != nil {
		t.Fatal(err)
	}
	const want = "ffac57b46edc707e2233a779ed1f50d57467d1ee99bf710bf5aa5e476c7b7fd5"
	sum := sha256.Sum256(blob)
	if got := hex.EncodeToString(sum[:]); got != want {
		t.Fatalf("segment of %d bytes hashes to %s, want %s", len(blob), got, want)
	}
}

// readSaved saves seg and reads its header back through a
// headerReader, returning the reader (for its counters), the header,
// its length and the file's size.
func readSaved(t *testing.T, seg *Segment) (*headerReader, *Segment, int64, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "seg.roar")
	if err := SaveFile(path, seg); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	h := &headerReader{src: f, size: st.Size(), path: path}
	s, hdrLen, err := h.read()
	if err != nil {
		t.Fatal(err)
	}
	return h, s, hdrLen, st.Size()
}

// TestOpenReadsHeaderOnce: a 200 000-document segment's header is read
// once and parsed once. The first read is sized from the declared doc
// count, so the doc table never outgrows it; a fixed first chunk would
// re-read and re-parse a header this size several times.
func TestOpenReadsHeaderOnce(t *testing.T) {
	const docs = 200000
	rng := rand.New(rand.NewSource(9))
	b := NewBuilder()
	for i := 0; i < docs; i++ {
		b.Add(rng.Uint64(), fmt.Sprintf("t%04d", rng.Intn(3000)), fmt.Sprintf("t%04d", rng.Intn(30)))
	}
	h, s, hdrLen, size := readSaved(t, b.Build("big"))
	if s.Docs() != docs {
		t.Fatalf("opened %d docs, want %d", s.Docs(), docs)
	}
	if h.parses != 1 {
		t.Errorf("parsed the header %d times, want once", h.parses)
	}
	// Each byte is read at most once: the window is the declared doc
	// table's bound plus the dictionary allowance, and nothing more.
	window := min(size, 8+binary.MaxVarintLen64*(1+docs)+dictAllowance)
	if h.bytesRead != window || h.bytesRead < hdrLen {
		t.Errorf("read %d bytes for a %d-byte header, want the %d-byte window once", h.bytesRead, hdrLen, window)
	}
}

// TestOpenGrowsForLargeDictionary: a dictionary past the allowance
// still opens, each retry reading only the bytes it adds.
func TestOpenGrowsForLargeDictionary(t *testing.T) {
	b := NewBuilder()
	terms := make([]string, 20000)
	for i := range terms {
		terms[i] = fmt.Sprintf("a-rather-long-term-%06d", i)
	}
	b.Add(1, terms...)
	b.Add(2, terms[:10]...)
	seg := b.Build("wide")
	h, s, hdrLen, size := readSaved(t, seg)
	if !reflect.DeepEqual(s.terms, seg.terms) || s.Cardinality(terms[3]) != 2 {
		t.Fatalf("opened %d terms (card %d), want %d (card 2)", len(s.terms), s.Cardinality(terms[3]), len(seg.terms))
	}
	if h.parses < 2 || h.bytesRead < hdrLen || h.bytesRead > size {
		t.Fatalf("%d parses reading %d bytes of %d for a %d-byte header; want a retry and no byte read twice",
			h.parses, h.bytesRead, size, hdrLen)
	}
}
