package index

import (
	"cmp"
	"fmt"
	"io"
	"slices"
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
// file-backed segments, and checks it against the segment: its
// cardinality must be the dictionary's and its ordinals must stay inside
// the doc table. Returns nil for absent terms. Callers normally go
// through a Cache; loadPosting itself is unbudgeted.
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
	if bm.Cardinality() != info.card {
		return nil, fmt.Errorf("index: posting %q of %s: cardinality %d != dict %d", term, s.name, bm.Cardinality(), info.card)
	}
	if n := len(s.docIDs); bm.card > 0 && maxValue(bm) >= uint64(n) {
		return nil, fmt.Errorf("index: posting %q of %s: ordinal %d outside doc table (%d docs)", term, s.name, maxValue(bm), n)
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
//
// Add only appends to a flat log: the id, and the document's terms as
// dense numbers (one map lookup per occurrence interns each term), so a
// document costs no copy of its term strings and the caller may reuse
// its slice. Build sorts the log by id and turns it into postings in one
// pass.
type Builder struct {
	log   []added
	nums  []uint32          // term numbers of every Add, in Add order
	num   map[string]uint32 // term -> its number
	names []string          // number -> term
}

// added is one Add: its id and its terms, nums[from:to].
type added struct {
	id       uint64
	from, to int
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder {
	return &Builder{num: make(map[string]uint32)}
}

// Add registers a document's terms. Re-adding an id replaces its terms
// (idempotent replica pushes, like store.Insert).
func (b *Builder) Add(id uint64, terms ...string) {
	from := len(b.nums)
	for _, t := range terms {
		n, ok := b.num[t]
		if !ok {
			n = uint32(len(b.names))
			b.num[t] = n
			b.names = append(b.names, t)
		}
		b.nums = append(b.nums, n)
	}
	b.log = append(b.log, added{id: id, from: from, to: len(b.nums)})
}

// Build freezes the builder into a memory-resident segment. It sorts
// the log by id, stably, and keeps each id's last Add; ordinals follow id
// order, so every term's ordinal list comes out sorted (a term named
// twice in one document is listed once) and becomes its bitmap in one
// pass.
func (b *Builder) Build(name string) *Segment {
	// (from, to) grows with Add order, so this sort is stable: two Adds
	// it cannot order are both empty at the same place, so alike.
	slices.SortFunc(b.log, func(x, y added) int {
		if x.id != y.id {
			return cmp.Compare(x.id, y.id)
		}
		return cmp.Or(cmp.Compare(x.from, y.from), cmp.Compare(x.to, y.to))
	})
	docIDs := make([]uint64, 0, len(b.log))
	lists := make([][]uint32, len(b.names))
	for i, d := range b.log {
		if i+1 < len(b.log) && b.log[i+1].id == d.id {
			continue // a later Add of this id replaces it
		}
		ord := uint32(len(docIDs))
		docIDs = append(docIDs, d.id)
		for _, n := range b.nums[d.from:d.to] {
			if l := lists[n]; len(l) == 0 || l[len(l)-1] != ord {
				lists[n] = append(l, ord)
			}
		}
	}
	terms := make([]string, 0, len(lists))
	dict := make(map[string]postingInfo, len(lists))
	mem := make(map[string]*Bitmap, len(lists))
	for n, l := range lists {
		if len(l) == 0 {
			continue // named only by replaced Adds
		}
		t := b.names[n]
		terms = append(terms, t)
		dict[t] = postingInfo{card: len(l)}
		mem[t] = bitmapOf(l)
	}
	slices.Sort(terms)
	return &Segment{name: name, docIDs: docIDs, terms: terms, dict: dict, mem: mem}
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
