package store

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"math/bits"
	"slices"
	"sort"
	"sync"

	"roar/internal/pps"
	"roar/internal/ring"
)

// This file is the match memo: per encrypted predicate, the matching ids
// of the ring buckets sub-queries have already scanned, kept current by
// the store's bucket stamps. A memoized lookup of a query brings each of
// its predicates' entries up to date, re-scanning only the buckets of its
// arc that an entry never scanned or that were written since, and then
// combines the entries' ids inside the arc by the query's AND or OR. Its
// answer is by construction what a fresh MatchArc returns:
//
//   - a record's verdict under a query is the AND or OR of its verdicts
//     under the query's predicates, each taken alone: evaluation order
//     never changes it, a filter shorter than MBits fails every
//     predicate, and an empty predicate holds;
//   - a mutator stamps the bucket under the write lock that covers the
//     change, and a lookup reads stamps and records under one read lock;
//   - a lookup reconciles every covered bucket of an entry, not only its
//     arc's, before it advances the entry's single asOf;
//   - a fill scans whole buckets, so "covered" means "every record this
//     node holds in the bucket was examined", whatever arc asked;
//   - a fill that is cancelled commits nothing.
//
// The node learns nothing it did not already see: every query carries
// each of its predicates' trapdoor bytes, and the entry is keyed by them.
// All memoized lookups on one store must use the same Matcher, as a node
// does: the key is the predicate alone.
//
// A predicate whose entry would take more than an eighth of the budget
// is kept as a tombstone (broad): no ids, so that no lookup fills it
// again. An AND query checks its broad predicates only on the records its
// other predicates leave; an OR query with one, and an AND query with
// nothing else, take the plain scan.

const (
	// memoBudget bounds the memo's resident bytes per store; an entry
	// larger than an eighth of it keeps no ids.
	memoBudget = 1 << 20
	// memoEntryBytes is what an entry costs beside its ids: the struct,
	// its map slot and its LRU element.
	memoEntryBytes = 320
)

// bucketSet is a set of ring buckets.
type bucketSet [numBuckets / 64]uint64

func (s *bucketSet) has(b int) bool { return s[b/64]&(1<<(b%64)) != 0 }

// addRange adds the buckets first..last, inclusive.
func (s *bucketSet) addRange(first, last int) {
	for b := first; b <= last; b++ {
		s[b/64] |= 1 << (b % 64)
	}
}

func (s *bucketSet) count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// arcBuckets is the set of buckets the spans touch.
func arcBuckets(spans []Span) bucketSet {
	var arc bucketSet
	for _, sp := range spans {
		arc.addRange(bucketOf(sp.First), bucketOf(sp.Last))
	}
	return arc
}

// memoEntry is what the memo knows about one predicate. mu guards asOf,
// covered, ids and broad and is taken before the store's lock, never
// after; a lookup takes the mus of its entries in key order. The
// remaining fields belong to matchMemo.mu.
type memoEntry struct {
	mu      sync.Mutex
	asOf    uint64    // store gen the entry was last reconciled at
	covered bucketSet // buckets whose matches ids holds
	ids     []uint64  // ascending: the matches, at asOf, in the covered buckets
	broad   bool      // a tombstone: too many matches to keep, covers nothing

	key  [sha256.Size]byte
	size int64         // bytes counted in matchMemo.resident
	elem *list.Element // nil once evicted
}

// matchMemo is one store's memo: entries by the SHA-256 of the
// one-predicate query's one binary form (pps.AppendQuery of an AND over
// the predicate alone, so a single-keyword query's key is its own), least
// recently used first out.
type matchMemo struct {
	mu       sync.Mutex
	entries  map[[sha256.Size]byte]*memoEntry
	lru      list.List // of *memoEntry, most recent at the front
	budget   int64
	resident int64

	lookups, reused, rescanned, evictions int64
	batches                               int64
}

// MemoStats snapshots a store's match memo. Reused and Rescanned count
// the buckets of completed lookups' arcs answered from memory and
// scanned; both are exact for a fixed sequence of operations. Batches
// counts the batches the lookups' matchers took, exact for a fixed
// sequence with one matching thread. Entries counts predicates,
// tombstones included.
type MemoStats struct {
	Lookups          int64
	BucketsReused    int64
	BucketsRescanned int64
	Evictions        int64
	Entries          int
	Bytes            int64
	Batches          int64
}

// MemoStats reports the memo's counters; all zero for a store that never
// served a memoized lookup.
func (s *Store) MemoStats() MemoStats {
	mm := s.memo.Load()
	if mm == nil {
		return MemoStats{}
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return MemoStats{
		Lookups:          mm.lookups,
		BucketsReused:    mm.reused,
		BucketsRescanned: mm.rescanned,
		Evictions:        mm.evictions,
		Entries:          len(mm.entries),
		Bytes:            mm.resident,
		Batches:          mm.batches,
	}
}

// matchMemo returns the store's memo, building it on first use.
func (s *Store) matchMemo() *matchMemo {
	if mm := s.memo.Load(); mm != nil {
		return mm
	}
	mm := &matchMemo{entries: map[[sha256.Size]byte]*memoEntry{}, budget: memoBudget}
	if s.memo.CompareAndSwap(nil, mm) {
		return mm
	}
	return s.memo.Load()
}

// memoPred is one distinct predicate of a lookup: the predicate as a
// query of its own, its entry, and the buckets of the arc the entry
// lacks.
type memoPred struct {
	one     pps.Query
	key     [sha256.Size]byte
	e       *memoEntry
	missing bucketSet
}

// preds returns q's distinct predicates in key order, each with its entry
// found or created and marked most recently used, and counts a lookup.
func (mm *matchMemo) preds(q pps.Query) []memoPred {
	ps := make([]memoPred, 0, len(q.Preds))
	var buf [1024]byte
next:
	for i := range q.Preds {
		one := pps.Query{Op: pps.And, Preds: q.Preds[i : i+1]}
		key := sha256.Sum256(pps.AppendQuery(buf[:0], one))
		for j := range ps {
			if ps[j].key == key {
				continue next // a repeated predicate: one entry
			}
		}
		ps = append(ps, memoPred{one: one, key: key})
	}
	slices.SortFunc(ps, func(a, b memoPred) int { return bytes.Compare(a.key[:], b.key[:]) })
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.lookups++
	for i := range ps {
		e := mm.entries[ps[i].key]
		if e != nil {
			mm.lru.MoveToFront(e.elem)
		} else {
			e = &memoEntry{key: ps[i].key, size: memoEntryBytes}
			e.elem = mm.lru.PushFront(e)
			mm.entries[e.key] = e
			mm.resident += e.size
		}
		ps[i].e = e
	}
	return ps
}

// lookupCounts is what one lookup did.
type lookupCounts struct {
	scanned           int // records
	reused, rescanned int // buckets
	batches           int // the lookup's scans'
}

// settle accounts a finished lookup: its counts, its entries' new sizes,
// an entry too broad to keep turned into a tombstone, and whatever the
// budget then evicts. The caller holds the entries' mus.
func (mm *matchMemo) settle(ps []memoPred, c lookupCounts) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.reused += int64(c.reused)
	mm.rescanned += int64(c.rescanned)
	mm.batches += int64(c.batches)
	for i := range ps {
		e := ps[i].e
		if e.elem == nil {
			continue // evicted during the lookup: the answer stands, the entry is garbage
		}
		size := memoEntryBytes + 8*int64(cap(e.ids))
		if size > mm.budget/8 {
			e.covered, e.ids, e.broad = bucketSet{}, nil, true
			size = memoEntryBytes
			mm.evictions++
		}
		mm.resident += size - e.size
		e.size = size
	}
	for mm.resident > mm.budget {
		mm.removeLocked(mm.lru.Back().Value.(*memoEntry))
	}
}

func (mm *matchMemo) removeLocked(e *memoEntry) {
	mm.lru.Remove(e.elem)
	e.elem = nil
	delete(mm.entries, e.key)
	mm.resident -= e.size
	mm.evictions++
}

// MatchArcMemo answers like MatchArc from the entries of q's predicates,
// re-scanning only the buckets of (lo, hi] that one of them does not
// cover or that were written since it did, in one pass for all of them;
// scanned counts the records that took, each once. refill drops what the
// entries hold first, tombstones included, for a caller that suspects
// them. A query without predicates matches nothing and takes the plain
// scan, as does an OR over a tombstone and an AND over tombstones alone.
// An error from ctx or the limiter leaves the entries without anything
// of the cut-short scan.
func (s *Store) MatchArcMemo(ctx context.Context, m *pps.Matcher, q pps.Query, lo, hi ring.Point, opts MatchOptions, refill bool) (ids []uint64, scanned int, err error) {
	if len(q.Preds) == 0 {
		return s.MatchArc(ctx, m, q, lo, hi, opts)
	}
	mm := s.matchMemo()
	ps := mm.preds(q)
	and, broad := q.Op == pps.And, 0
	for i := range ps {
		e := ps[i].e
		e.mu.Lock()
		if refill {
			e.covered, e.ids, e.broad = bucketSet{}, e.ids[:0], false
		}
		if e.broad {
			broad++
		}
	}
	unlock := func() {
		for i := range ps {
			ps[i].e.mu.Unlock()
		}
	}
	spans := ArcSpans(lo, hi)
	if broad == len(ps) || (broad > 0 && !and) {
		unlock()
		ids, scanned, err = s.MatchArc(ctx, m, q, lo, hi, opts)
		if err == nil {
			arc := arcBuckets(spans)
			mm.settle(nil, lookupCounts{rescanned: arc.count()})
		}
		return ids, scanned, err
	}
	defer unlock()
	ids, c, err := s.lookup(ctx, m, and, ps, spans, opts)
	mm.settle(ps, c) // a failed lookup too: it may have made entries
	return ids, c.scanned, err
}

// lookup reconciles the entries of ps that are not tombstones with the
// store, fills the buckets of spans each does not cover in one scan, and
// combines their ids inside spans by AND or OR; an AND then checks its
// tombstoned predicates on what is left. The caller holds the entries'
// mus.
func (s *Store) lookup(ctx context.Context, m *pps.Matcher, and bool, ps []memoPred, spans []Span, opts MatchOptions) (ids []uint64, c lookupCounts, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for !s.scheduled.Load() {
		s.mu.RUnlock()
		s.activateSchedules()
		s.mu.RLock()
	}

	arc := arcBuckets(spans)
	var union bucketSet // buckets some entry lacks
	var fills []pps.Query
	for i := range ps {
		p := &ps[i]
		if p.e.broad {
			continue
		}
		s.reconcileLocked(p.e)
		for w := range arc {
			p.missing[w] = arc[w] &^ p.e.covered[w]
			union[w] |= p.missing[w]
		}
		if p.missing != (bucketSet{}) {
			fills = append(fills, p.one)
		}
	}
	c.rescanned = union.count()
	c.reused = arc.count() - c.rescanned

	// Fill the union of the missing buckets, whole, in one pass for every
	// entry that lacks any; each entry keeps what it lacked.
	if len(fills) > 0 {
		sc, err := s.scanLocked(ctx, m, fills, opts, s.bucketRangesLocked(&union))
		if err != nil {
			return nil, lookupCounts{scanned: sc.scanned}, err
		}
		c.scanned, c.batches = sc.scanned, sc.batches
		found := sc.ids
		for i := range ps {
			p := &ps[i]
			if p.e.broad || p.missing == (bucketSet{}) {
				continue
			}
			got := found[0]
			found = found[1:]
			if p.missing != union {
				got = slices.DeleteFunc(got, func(id uint64) bool { return !p.missing.has(bucketOf(id)) })
			}
			p.e.ids = mergeDisjoint(p.e.ids, got)
			for w := range p.missing {
				p.e.covered[w] |= p.missing[w]
			}
		}
	}

	// Combine inside the arc, in ascending order: a wrapping arc's second
	// span starts at 0.
	var partsBuf [4][]uint64
	for i := len(spans) - 1; i >= 0; i-- {
		parts := partsBuf[:0]
		for j := range ps {
			if e := ps[j].e; !e.broad {
				parts = append(parts, inSpan(e.ids, spans[i]))
			}
		}
		if and {
			ids = appendIntersect(ids, parts)
		} else {
			ids = appendUnion(ids, parts)
		}
	}
	var broadPreds []pps.BloomQuery
	for i := range ps {
		if ps[i].e.broad {
			broadPreds = append(broadPreds, ps[i].one.Preds[0])
		}
	}
	if len(broadPreds) == 0 || len(ids) == 0 {
		return ids, c, nil
	}

	// An AND over tombstones too: check those predicates on the candidates
	// alone, gathered into batches. A candidate in a bucket the fill just
	// scanned counts as scanned already.
	for _, id := range ids {
		if !union.has(bucketOf(id)) {
			c.scanned++
		}
	}
	check := pps.Query{Op: pps.And, Preds: broadPreds}
	sc, err := s.scanLocked(ctx, m, []pps.Query{check}, opts, s.rangesOfLocked(ids))
	if err != nil {
		return nil, lookupCounts{scanned: c.scanned}, err
	}
	c.batches += sc.batches
	return sc.ids[0], c, nil
}

// reconcileLocked drops from e every covered bucket written since e.asOf
// (asOf is one number for the whole entry, so none may stay covered with
// a newer stamp) and advances asOf. The caller holds e.mu and the store's
// read lock.
func (s *Store) reconcileLocked(e *memoEntry) {
	if e.asOf == s.gen {
		return
	}
	stale := false
	for w, word := range e.covered {
		for ; word != 0; word &= word - 1 {
			b := w*64 + bits.TrailingZeros64(word)
			if s.changed[b] > e.asOf {
				e.covered[w] &^= 1 << (b % 64)
				stale = true
			}
		}
	}
	if stale {
		e.ids = slices.DeleteFunc(e.ids, func(id uint64) bool { return !e.covered.has(bucketOf(id)) })
	}
	e.asOf = s.gen
}

// bucketRangesLocked returns the records of the buckets of set as index
// ranges, one per run of consecutive buckets that holds any.
func (s *Store) bucketRangesLocked(set *bucketSet) []indexRange {
	var runs []indexRange
	for b := 0; b < numBuckets; b++ {
		if !set.has(b) {
			continue
		}
		from := int(s.start[b])
		for b+1 < numBuckets && set.has(b+1) {
			b++
		}
		if to := int(s.start[b+1]); from < to {
			runs = append(runs, indexRange{from, to})
		}
	}
	return runs
}

// rangesOfLocked returns the records with the ascending ids as index
// ranges, adjacent records in one range. The store holds every id.
func (s *Store) rangesOfLocked(ids []uint64) []indexRange {
	var rs []indexRange
	at := 0
	for _, id := range ids {
		at = s.seekLocked(at, id)
		if n := len(rs); n > 0 && rs[n-1].to == at {
			rs[n-1].to++
		} else {
			rs = append(rs, indexRange{at, at + 1})
		}
		at++
	}
	return rs
}

// inSpan is the part of ascending ids inside sp.
func inSpan(ids []uint64, sp Span) []uint64 {
	from := sort.Search(len(ids), func(j int) bool { return ids[j] >= sp.First })
	to := from + sort.Search(len(ids)-from, func(j int) bool { return ids[from+j] > sp.Last })
	return ids[from:to]
}

// appendIntersect appends the ids every ascending part holds, ascending.
func appendIntersect(out []uint64, parts [][]uint64) []uint64 {
	if len(parts) == 1 {
		return append(out, parts[0]...)
	}
	// Walk the shortest part and advance a cursor in each other.
	short := 0
	for i, p := range parts {
		if len(p) < len(parts[short]) {
			short = i
		}
	}
	var cursBuf [4]int
	curs := cursBuf[:0]
	for range parts {
		curs = append(curs, 0)
	}
candidates:
	for _, id := range parts[short] {
		for i, p := range parts {
			if i == short {
				continue
			}
			for curs[i] < len(p) && p[curs[i]] < id {
				curs[i]++
			}
			if curs[i] == len(p) {
				break candidates
			}
			if p[curs[i]] != id {
				continue candidates
			}
		}
		out = append(out, id)
	}
	return out
}

// appendUnion appends the ids any ascending part holds, ascending, each
// once.
func appendUnion(out []uint64, parts [][]uint64) []uint64 {
	if len(parts) == 1 {
		return append(out, parts[0]...)
	}
	var headsBuf [4][]uint64
	heads := append(headsBuf[:0], parts...)
	for {
		least, any := uint64(0), false
		for _, h := range heads {
			if len(h) > 0 && (!any || h[0] < least) {
				least, any = h[0], true
			}
		}
		if !any {
			return out
		}
		out = append(out, least)
		for i, h := range heads {
			if len(h) > 0 && h[0] == least {
				heads[i] = h[1:]
			}
		}
	}
}

// mergeDisjoint merges ascending b into ascending a, in a's storage when
// it has room. The two share no id.
func mergeDisjoint(a, b []uint64) []uint64 {
	if len(b) == 0 {
		return a
	}
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	for k := len(a) - 1; j >= 0; k-- {
		if i >= 0 && a[i] > b[j] {
			a[k] = a[i]
			i--
		} else {
			a[k] = b[j]
			j--
		}
	}
	return a
}
