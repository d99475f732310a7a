package store

import (
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

// This file is the match memo: per encrypted query, the matching ids of
// the ring buckets a sub-query has already scanned, kept current by the
// store's bucket stamps. A memoized lookup re-scans only the buckets of
// its arc that were never scanned or were written since, so its answer is
// by construction what a fresh MatchArc returns. Why a remembered bucket
// is never stale:
//
//   - a mutator stamps the bucket under the write lock that covers the
//     change, and a lookup reads stamps and records under one read lock;
//   - a lookup reconciles every covered bucket, not only its arc's, before
//     it advances the entry's single asOf;
//   - a fill scans whole buckets, so "covered" means "every record this
//     node holds in the bucket was examined", whatever arc asked;
//   - a fill that is cancelled commits nothing.
//
// All memoized lookups on one store must use the same Matcher, as a node
// does: the key is the query alone.

const (
	// memoBudget bounds the memo's resident bytes per store; an entry
	// larger than an eighth of it is not kept.
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

// memoEntry is what the memo knows about one query. mu guards asOf,
// covered and ids and is taken before the store's lock, never after; the
// remaining fields belong to matchMemo.mu.
type memoEntry struct {
	mu      sync.Mutex
	asOf    uint64    // store gen the entry was last reconciled at
	covered bucketSet // buckets whose matches ids holds
	ids     []uint64  // ascending: the matches, at asOf, in the covered buckets

	key  [sha256.Size]byte
	size int64         // bytes counted in matchMemo.resident
	elem *list.Element // nil once evicted
}

// matchMemo is one store's memo: entries by the SHA-256 of the query's
// canonical bytes (pps.Query.AppendKey), least recently used first out.
type matchMemo struct {
	mu       sync.Mutex
	entries  map[[sha256.Size]byte]*memoEntry
	lru      list.List // of *memoEntry, most recent at the front
	budget   int64
	resident int64

	lookups, reused, rescanned, evictions int64
}

// MemoStats snapshots a store's match memo. Reused and Rescanned count
// the buckets of completed lookups' arcs answered from memory and
// scanned; both are exact for a fixed sequence of operations.
type MemoStats struct {
	Lookups          int64
	BucketsReused    int64
	BucketsRescanned int64
	Evictions        int64
	Entries          int
	Bytes            int64
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

// entry finds or creates q's entry and marks it most recently used.
func (mm *matchMemo) entry(q pps.Query) *memoEntry {
	var buf [512]byte
	key := sha256.Sum256(q.AppendKey(buf[:0]))
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.lookups++
	if e := mm.entries[key]; e != nil {
		mm.lru.MoveToFront(e.elem)
		return e
	}
	e := &memoEntry{key: key, size: memoEntryBytes}
	e.elem = mm.lru.PushFront(e)
	mm.entries[key] = e
	mm.resident += e.size
	return e
}

// settle accounts a finished lookup: its bucket counts, the entry's new
// size, and whatever the budget then evicts. The caller holds e.mu.
func (mm *matchMemo) settle(e *memoEntry, reused, rescanned int) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.reused += int64(reused)
	mm.rescanned += int64(rescanned)
	if e.elem == nil {
		return // evicted during the lookup: the answer stands, the entry is garbage
	}
	size := memoEntryBytes + 8*int64(cap(e.ids))
	mm.resident += size - e.size
	e.size = size
	if size > mm.budget/8 {
		mm.removeLocked(e)
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

// MatchArcMemo answers like MatchArc, re-scanning only the buckets of
// (lo, hi] that q's memo entry does not cover or that were written since
// it did; scanned counts the records that took. refill drops what the
// entry holds first, for a caller that suspects it. An error from ctx or
// the limiter leaves the entry without anything of the cut-short scan.
func (s *Store) MatchArcMemo(ctx context.Context, m *pps.Matcher, q pps.Query, lo, hi ring.Point, opts MatchOptions, refill bool) (ids []uint64, scanned int, err error) {
	mm := s.matchMemo()
	e := mm.entry(q)
	e.mu.Lock()
	defer e.mu.Unlock()
	if refill {
		e.covered, e.ids = bucketSet{}, e.ids[:0]
	}
	ids, scanned, reused, rescanned, err := s.lookup(ctx, e, m, q, arcSpans(lo, hi), opts)
	mm.settle(e, reused, rescanned) // a failed lookup too: it may have made the entry
	return ids, scanned, err
}

// lookup reconciles e with the store, fills the buckets of spans it does
// not cover, and copies out the ids inside spans. The caller holds e.mu.
func (s *Store) lookup(ctx context.Context, e *memoEntry, m *pps.Matcher, q pps.Query, spans []idSpan, opts MatchOptions) (ids []uint64, scanned, reused, rescanned int, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for !s.scheduled.Load() {
		s.mu.RUnlock()
		s.activateSchedules()
		s.mu.RLock()
	}

	// Reconcile every covered bucket: asOf is one number for the whole
	// entry, so none may stay covered with a newer stamp.
	if e.asOf != s.gen {
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
	}

	// Fill the arc's uncovered buckets, whole, in one scan.
	var missing bucketSet
	for _, sp := range spans {
		missing.addRange(bucketOf(sp.first), bucketOf(sp.last))
	}
	need := missing.count()
	for w := range missing {
		missing[w] &^= e.covered[w]
	}
	rescanned = missing.count()
	if rescanned > 0 {
		var runs []indexRange // one per run of consecutive missing buckets
		for b := 0; b < numBuckets; b++ {
			if !missing.has(b) {
				continue
			}
			from := s.lowerLocked(uint64(b) << bucketShift)
			for b+1 < numBuckets && missing.has(b+1) {
				b++
			}
			to := len(s.recs)
			if b+1 < numBuckets {
				to = s.lowerLocked(uint64(b+1) << bucketShift)
			}
			if from < to {
				runs = append(runs, indexRange{from, to})
			}
		}
		var matched []uint64
		matched, scanned, err = s.scanLocked(ctx, m, q, opts, runs)
		if err != nil {
			return nil, scanned, 0, 0, err
		}
		e.ids = mergeDisjoint(e.ids, matched)
		for w := range missing {
			e.covered[w] |= missing[w]
		}
	}
	e.asOf = s.gen

	// Answer in ascending order: a wrapping arc's second span starts at 0.
	for i := len(spans) - 1; i >= 0; i-- {
		sp := spans[i]
		from := sort.Search(len(e.ids), func(j int) bool { return e.ids[j] >= sp.first })
		to := sort.Search(len(e.ids), func(j int) bool { return e.ids[j] > sp.last })
		ids = append(ids, e.ids[from:to]...)
	}
	return ids, scanned, need - rescanned, rescanned, nil
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
