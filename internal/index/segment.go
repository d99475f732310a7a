package index

import (
	"fmt"
	"io"
	"sort"
	"sync"
)

// A Segment is an immutable inverted index over one batch of documents.
//
// Postings are bitmaps over dense per-segment doc ordinals, not raw
// record ids: ROAR record ids are drawn uniformly from the whole uint64
// space (their ring position is the id scaled into [0,1)), so a roaring
// bitmap of raw ids would degenerate into one singleton container per
// record. Ordinals are assigned in record-id order, which keeps the
// containers dense AND makes an id arc a contiguous ordinal range: the
// resident docID column (8B/doc plus the term dictionary — the
// memory-resident "compute" half of the compute/storage split) converts
// arc bounds to ordinal bounds with two binary searches, and the
// posting bitmaps never leave ordinal space until final extraction.
//
// A segment is either memory-resident (built by a Builder) or
// disk-backed (OpenFile), in which case posting bytes are read on
// demand and decoded through the Cache's memory budget.
type Segment struct {
	name   string
	docIDs []uint64 // ordinal -> record id, strictly increasing
	terms  []string // sorted; encoding order
	dict   map[string]postingInfo

	mem map[string]*Bitmap // memory-resident postings (Builder output)

	src    io.ReaderAt // disk-backed posting source
	closer io.Closer
}

// postingInfo locates one term's encoded posting list in the segment
// file. off is absolute within the file.
type postingInfo struct {
	off  int64
	size int
	card int
}

// Name identifies the segment (its file path for disk-backed segments).
func (s *Segment) Name() string { return s.name }

// Docs returns the document count.
func (s *Segment) Docs() int { return len(s.docIDs) }

// Terms returns the sorted term list (shared; do not mutate).
func (s *Segment) Terms() []string { return s.terms }

// Cardinality returns the posting-list length for term (0 when absent)
// without touching the posting bytes — the dictionary is resident.
func (s *Segment) Cardinality(term string) int { return s.dict[term].card }

// Close releases the underlying file, if any.
func (s *Segment) Close() error {
	if s.closer != nil {
		err := s.closer.Close()
		s.closer = nil
		return err
	}
	return nil
}

// loadPosting decodes the posting list for term, reading from disk for
// file-backed segments. Returns nil for absent terms. Callers normally
// go through a Cache; loadPosting itself is unbudgeted.
func (s *Segment) loadPosting(term string) (*Bitmap, error) {
	info, ok := s.dict[term]
	if !ok {
		return nil, nil
	}
	if s.mem != nil {
		return s.mem[term], nil
	}
	buf := make([]byte, info.size)
	if _, err := s.src.ReadAt(buf, info.off); err != nil {
		return nil, fmt.Errorf("index: reading posting %q of %s: %w", term, s.name, err)
	}
	bm, err := DecodeBitmap(buf)
	if err != nil {
		return nil, fmt.Errorf("index: posting %q of %s: %w", term, s.name, err)
	}
	return bm, nil
}

// ordRange returns the ordinal window [a, b) of docs whose record id
// lies in the half-open id interval (lo, hi], assuming lo <= hi (the
// caller splits wrapping arcs).
func (s *Segment) ordRange(lo, hi uint64) (int, int) {
	a := sort.Search(len(s.docIDs), func(i int) bool { return s.docIDs[i] > lo })
	b := sort.Search(len(s.docIDs), func(i int) bool { return s.docIDs[i] > hi })
	return a, b
}

// Builder accumulates documents and produces an immutable Segment.
// Not safe for concurrent use.
type Builder struct {
	docs map[uint64][]string
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{docs: make(map[uint64][]string)}
}

// Add registers a document's terms. Re-adding an id replaces its terms
// (idempotent replica pushes, like store.Insert).
func (b *Builder) Add(id uint64, terms ...string) {
	b.docs[id] = append([]string(nil), terms...)
}

// Len reports the buffered document count.
func (b *Builder) Len() int { return len(b.docs) }

// Build freezes the builder into a memory-resident segment: docs are
// ordered by record id, ordinals assigned, and one bitmap built per
// distinct term.
func (b *Builder) Build(name string) *Segment {
	ids := make([]uint64, 0, len(b.docs))
	for id := range b.docs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, c int) bool { return ids[a] < ids[c] })

	mem := make(map[string]*Bitmap)
	for ord, id := range ids {
		for _, t := range b.docs[id] {
			bm := mem[t]
			if bm == nil {
				bm = NewBitmap()
				mem[t] = bm
			}
			bm.Add(uint64(ord))
		}
	}
	terms := make([]string, 0, len(mem))
	dict := make(map[string]postingInfo, len(mem))
	for t, bm := range mem {
		terms = append(terms, t)
		dict[t] = postingInfo{card: bm.Cardinality()}
	}
	sort.Strings(terms)
	return &Segment{name: name, docIDs: ids, terms: terms, dict: dict, mem: mem}
}

// Index is a set of segments searched as one corpus, sharing a
// memory-budgeted posting cache. Safe for concurrent searches;
// AddSegment during searches is serialized by the internal lock.
type Index struct {
	mu    sync.RWMutex
	segs  []*Segment
	cache *Cache
}

// New creates an empty index whose disk-backed posting residency is
// bounded by budgetBytes (<= 0 means a small sane default; see Cache).
func New(budgetBytes int64) *Index {
	return &Index{cache: NewCache(budgetBytes)}
}

// Cache exposes the posting cache (stats, budget introspection).
func (ix *Index) Cache() *Cache { return ix.cache }

// AddSegment attaches a built or opened segment.
func (ix *Index) AddSegment(s *Segment) {
	ix.mu.Lock()
	ix.segs = append(ix.segs, s)
	ix.mu.Unlock()
}

// AddFile opens a segment file and attaches it.
func (ix *Index) AddFile(path string) error {
	s, err := OpenFile(path)
	if err != nil {
		return err
	}
	ix.AddSegment(s)
	return nil
}

// Docs returns the total document count across segments.
func (ix *Index) Docs() int {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	n := 0
	for _, s := range ix.segs {
		n += s.Docs()
	}
	return n
}

// Segments returns the attached segments (shared slice copy).
func (ix *Index) Segments() []*Segment {
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	return append([]*Segment(nil), ix.segs...)
}

// Close releases every disk-backed segment.
func (ix *Index) Close() error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var first error
	for _, s := range ix.segs {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	ix.segs = nil
	return first
}
