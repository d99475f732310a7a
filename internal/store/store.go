// Package store implements the metadata store of §5.6: encrypted
// metadata records sorted by identifier, with partial range access (for
// sub-queries that match only a slice of the id space), wrap-aware range
// iteration, and the producer/consumer matching pipeline that decouples
// I/O from CPU-bound matching (§5.6.3).
//
// Object identifiers are uint64; their position on the ROAR ring is the
// id scaled into [0, 1). Records are kept sorted so a sub-query's id arc
// maps to at most two contiguous slices.
//
// Reads, routing and trims share one rule, in identifier space: a
// sub-query (lo, hi] reads ArcSpans(lo, hi), and a node with a range at
// level p holds StoredSpans(range, p), the ids the coordinator's drain
// routes and its pushes send to that node and RetainStored keeps. The
// float ring only supplies the bounds; no record is placed by its float
// point, so a rounding cannot put an id where no rule expects it.
//
// The store is the one place a record's bytes are kept. Insert copies
// the nonce and filter of every record it keeps, so the write path's
// decoders upstream (a node's push decode, the ingest drain) lend views
// of their buffers and allocate nothing per record. A record that
// replaces a held id with fields of the same lengths is copied over the
// bytes it replaces, with no allocation; any other takes one. No view of
// the stored bytes leaves the lock: Get and InArc return copies, and the
// scans that read them in place hold the read lock, which an overwrite's
// write lock excludes.
//
// The ring is cut into numBuckets fixed buckets (the top bits of the
// identifier), and a directory of numBuckets+1 offsets says where each
// bucket's records start. A record is found by a search of its bucket
// alone, O(log(n/numBuckets)) probes for ids spread over the ring, and
// the search reads ids, a dense array of the records' identifiers kept in
// step with them: a bucket's ids fill a cache line or two instead of a
// line per record. A mutator keeps the directory and ids in step under
// its write lock: a single fresh insert adjusts the offsets above its
// bucket, a batch with fresh ids makes one pass over the batch and the
// directory, RetainStored rebuilds it in the pass it makes anyway, and a
// replacement moves nothing, so it touches neither.
//
// Insert has three cases. One record: a bucket search, then one memmove
// of the records above it if its id is fresh, O(n) only then. A batch of
// k records whose ids the store all holds already (an at-least-once
// re-delivery, an update of existing objects): ordered, located by a
// search inside each id's bucket from the previous position and
// overwritten in place, nothing moves. A batch with fresh ids: the same
// search, one growth of the slices, and each run of stored records
// between two insertion points moved up once, O(k log k + n +
// numBuckets). A batch that arrives strictly ascending, as every push of
// the ingest drain does, is ordered by one O(k) check instead of a sort,
// so its k log k term goes; any other batch is ordered through a sorted
// index permutation, never by swapping the records themselves
// (SortedUnique). The key schedules move in step with the records in
// every case.
//
// A store that has been scanned also holds, per record and by value, the
// 64-byte HMAC key schedule of the record's nonce (pps.KeySchedule), so
// a scan keys its matcher with two copies instead of two SHA-256
// compressions per record per query. The schedules are derived at the
// first MatchArc and maintained by Insert from then on (RetainStored
// drops them, and the next scan derives them again); a store that is
// never scanned (the coordinator's backend, a node that
// only ingests) derives and holds none.
//
// The store also stamps a bucket with its generation whenever the
// records it holds there change. The match memo (memo.go) rests on those
// stamps: an answer remembered for a bucket is current exactly while the
// bucket's stamp is no newer than the answer. Every mutator of recs
// (Insert, RetainStored) stamps what it changes through
// touchLocked and keeps the directory in step, under the write lock that
// covers the change; a new mutator must do the same. FuzzMemoEqualsScan
// is the test that catches a forgotten stamp, and the store's structural
// check (checkScheduleInvariants) a directory out of step.
package store

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"roar/internal/pps"
	"roar/internal/ring"
)

// PointOf maps an object identifier to its ring position. The largest
// identifiers round to 1.0 in float64; they are clamped just below 1 to
// stay inside [0, 1).
func PointOf(id uint64) ring.Point {
	f := float64(id) / math.Exp2(64)
	if f >= 1 {
		f = math.Nextafter(1, 0)
	}
	return ring.Point(f)
}

// IDOf maps a ring position to the first identifier at or after it.
func IDOf(p ring.Point) uint64 {
	f := float64(p) * math.Exp2(64)
	if f >= math.Exp2(64) {
		return math.MaxUint64
	}
	return uint64(f)
}

// The ring's fixed buckets: bucketOf is exact integer arithmetic in id
// space, the space rangesLocked searches, so which bucket a record
// dirties and which records a bucket holds cannot disagree by a float
// rounding.
const (
	bucketBits  = 10
	numBuckets  = 1 << bucketBits
	bucketShift = 64 - bucketBits
)

func bucketOf(id uint64) int { return int(id >> bucketShift) }

// Store holds one node's replica set. Safe for concurrent use.
type Store struct {
	mu   sync.RWMutex
	recs []pps.Encoded // sorted by ID, unique; every nonce and filter the store's own

	// ids[i] == recs[i].ID: the dense array a seek searches, eight bytes a
	// record, so a bucket's ids take a cache line or two where its records
	// take one line each. It changes with recs, under the write lock.
	ids []uint64

	// ks[i] is the key schedule of recs[i].Nonce while scheduled is set;
	// otherwise ks is empty. Both change only under the write lock, and
	// gen counts those changes to recs so a schedule set derived under
	// the read lock can tell whether it still fits (activateSchedules).
	ks        []pps.KeySchedule
	scheduled atomic.Bool
	gen       uint64

	// changed[b] is the gen of the last change to the records held in
	// bucket b (touchLocked); zero for a bucket never written.
	changed [numBuckets]uint64

	// start is the bucket directory: bucket b holds recs[start[b]:start[b+1]]
	// and start[numBuckets] == len(recs), so the zero value is the empty
	// store's. It changes with recs, under the write lock.
	start [numBuckets + 1]int32

	// memo is built by the first memoized lookup (MatchArcMemo), so a
	// store that never serves one carries only this pointer.
	memo atomic.Pointer[matchMemo]
}

// touchLocked stamps the bucket of a record that the caller, holding the
// write lock and having advanced gen, inserts, replaces or removes.
func (s *Store) touchLocked(id uint64) { s.changed[bucketOf(id)] = s.gen }

// New returns an empty store.
func New() *Store { return &Store{} }

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Insert adds or replaces records (replica pushes are idempotent).
// Single-record inserts take the bucket-search + shift fast path.
// A batch of k records into n stored ones is ordered (SortedUnique: O(k)
// when already strictly ascending, O(k log k) otherwise) and located by
// a search inside each id's bucket; when the store already holds every
// id (a re-delivery, an update of existing objects) that is the whole
// cost, and when some are fresh the stored records above the first
// fresh id move once, O(n), instead of the O(k·n) memmove of per-record
// insertion. Ordering, and deriving the batch's key schedules when the
// store keeps them, happen before the write lock is taken.
//
// The store keeps a copy of every record's nonce and filter (keepLocked),
// so the caller may reuse its buffers once Insert returns.
func (s *Store) Insert(recs ...pps.Encoded) {
	if len(recs) == 0 {
		return
	}
	if len(recs) > 1 {
		recs = SortedUnique(recs)
	}
	var one [1]pps.KeySchedule
	ks := one[:0]
	if s.scheduled.Load() {
		ks = pps.AppendKeySchedules(ks, recs)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	if s.scheduled.Load() && len(ks) == 0 {
		ks = pps.AppendKeySchedules(ks, recs) // activated since the check above
	}
	for i := range recs {
		s.touchLocked(recs[i].ID) // fresh and replaced ids alike
	}
	if len(recs) == 1 {
		s.insertOneLocked(recs[0], ks)
		return
	}
	s.mergeLocked(recs, ks)
}

// insertOneLocked inserts r, with its schedule in ks when the store
// keeps schedules.
func (s *Store) insertOneLocked(r pps.Encoded, ks []pps.KeySchedule) {
	i := s.lowerLocked(r.ID)
	fresh := i == len(s.ids) || s.ids[i] != r.ID
	if fresh {
		s.recs = append(s.recs, pps.Encoded{})
		copy(s.recs[i+1:], s.recs[i:])
		s.ids = append(s.ids, 0)
		copy(s.ids[i+1:], s.ids[i:])
		s.ids[i] = r.ID
		s.shiftDirectoryLocked(r.ID)
	}
	s.keepLocked(i, r, !fresh)
	if !s.scheduled.Load() {
		return
	}
	if fresh {
		s.ks = append(s.ks, pps.KeySchedule{})
		copy(s.ks[i+1:], s.ks[i:])
	}
	s.ks[i] = ks[0]
}

// keepLocked stores r at recs[i] in bytes the store owns. A record that
// replaces the one held there (held) with a nonce and a filter of the
// same lengths is copied over the old bytes and allocates nothing; any
// other gets one allocation (pps.CopyMetadata). The write lock keeps
// every scan, whose batches are views of these bytes, out meanwhile, and
// no view of them leaves the lock.
func (s *Store) keepLocked(i int, r pps.Encoded, held bool) {
	old := &s.recs[i]
	if held && len(old.Nonce) == len(r.Nonce) && len(old.Filter) == len(r.Filter) {
		copy(old.Nonce, r.Nonce)
		copy(old.Filter, r.Filter)
		return
	}
	r.Nonce, r.Filter = pps.CopyMetadata(r.Nonce, r.Filter)
	*old = r
}

// SortedUnique returns recs ordered by ID with one record per ID, the
// last occurrence: what inserting them one at a time would leave, and
// the order Insert applies a batch in. Strictly ascending input comes
// back as it is after one O(k) check, with nothing allocated. Any other
// input is ordered through a sorted permutation of (id, position) pairs
// and gathered into a new slice, so each record is copied once and never
// swapped; recs itself is not modified.
func SortedUnique(recs []pps.Encoded) []pps.Encoded {
	ascending := true
	for i := 1; i < len(recs) && ascending; i++ {
		ascending = recs[i-1].ID < recs[i].ID
	}
	if ascending {
		return recs
	}
	type idAt struct {
		id uint64
		at int
	}
	order := make([]idAt, len(recs))
	for i := range recs {
		order[i] = idAt{recs[i].ID, i}
	}
	// Ties break on position, so the last write of an id sorts last.
	slices.SortFunc(order, func(a, b idAt) int {
		if c := cmp.Compare(a.id, b.id); c != 0 {
			return c
		}
		return cmp.Compare(a.at, b.at)
	})
	out := make([]pps.Encoded, 0, len(order))
	for j, o := range order {
		if j+1 < len(order) && order[j+1].id == o.id {
			continue
		}
		out = append(out, recs[o.at])
	}
	return out
}

// shiftDirectoryLocked moves the start of every bucket above id's up by
// one: one record fresh in id's bucket.
func (s *Store) shiftDirectoryLocked(id uint64) {
	for b := bucketOf(id) + 1; b <= numBuckets; b++ {
		s.start[b]++
	}
}

// indexBucketsLocked rebuilds the directory from recs in one pass.
func (s *Store) indexBucketsLocked() {
	i := 0
	for b := 0; b <= numBuckets; b++ {
		for i < len(s.ids) && bucketOf(s.ids[i]) < b {
			i++
		}
		s.start[b] = int32(i)
	}
}

// seekLocked is the index of the first record at or after from with
// ID >= id; every record before from must have ID < id. It reads ids,
// not recs, and searches id's bucket only, by doubling steps from the
// later of from and the bucket's start and bisecting the last: O(log
// gap) inside the bucket, so a sorted batch locates a dense run of ids
// in the same steps as a linear walk, and a store whose ids share one
// bucket costs what a search of the whole slice does.
func (s *Store) seekLocked(from int, id uint64) int {
	// Every record before lo has ID < id, and every record from n on is
	// in a later bucket.
	b := bucketOf(id)
	lo, n, step := max(from, int(s.start[b])), int(s.start[b+1]), 1
	for lo+step <= n && s.ids[lo+step-1] < id {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, n)
	return lo + sort.Search(hi-lo, func(i int) bool { return s.ids[lo+i] >= id })
}

// mergeLocked bulk-inserts a SortedUnique batch in one pass that locates
// every id: an id the store holds is overwritten where it is, and a
// fresh one is noted with its insertion point. When some are fresh the
// slices grow once, and back to front the run of old records above each
// insertion point moves up once, by the number of fresh ids at or below
// it, and so does the start of every bucket above the fresh id's and not
// above the next fresh id's. A batch the store holds entirely, with
// fields of the lengths it holds, allocates nothing and moves nothing
// (keepLocked). ks holds the batch's schedules when the store keeps them
// and moves in step with the records, as ids does.
func (s *Store) mergeLocked(batch []pps.Encoded, ks []pps.KeySchedule) {
	scheduled := s.scheduled.Load()
	old := len(s.recs)
	type insertion struct{ j, at int } // batch[j] goes before recs[at]
	var fresh []insertion
	at := 0
	for j := range batch {
		at = s.seekLocked(at, batch[j].ID)
		if at == old || s.ids[at] != batch[j].ID {
			fresh = append(fresh, insertion{j, at})
			continue
		}
		s.keepLocked(at, batch[j], true)
		if scheduled {
			s.ks[at] = ks[j]
		}
	}
	if len(fresh) == 0 {
		return
	}
	s.recs = append(s.recs, make([]pps.Encoded, len(fresh))...)
	s.ids = append(s.ids, make([]uint64, len(fresh))...)
	if scheduled {
		s.ks = append(s.ks, make([]pps.KeySchedule, len(fresh))...)
	}
	end, b := old, numBuckets
	for shift := len(fresh); shift > 0; shift-- {
		f := fresh[shift-1]
		for ; b > bucketOf(batch[f.j].ID); b-- {
			s.start[b] += int32(shift)
		}
		copy(s.recs[f.at+shift:end+shift], s.recs[f.at:end])
		copy(s.ids[f.at+shift:end+shift], s.ids[f.at:end])
		s.ids[f.at+shift-1] = batch[f.j].ID
		s.keepLocked(f.at+shift-1, batch[f.j], false)
		if scheduled {
			copy(s.ks[f.at+shift:end+shift], s.ks[f.at:end])
			s.ks[f.at+shift-1] = ks[f.j]
		}
		end = f.at
	}
}

// Get returns a copy of the record with the given id.
func (s *Store) Get(id uint64) (pps.Encoded, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.lowerLocked(id)
	if i == len(s.ids) || s.ids[i] != id {
		return pps.Encoded{}, false
	}
	r := s.recs[i]
	r.Nonce, r.Filter = pps.CopyMetadata(r.Nonce, r.Filter)
	return r, true
}

// InArc returns copies of the records whose ring point lies in the
// half-open arc (lo, hi] — the match set of a sub-query: InSpans of the
// arc's ArcSpans.
func (s *Store) InArc(lo, hi ring.Point) []pps.Encoded {
	return s.InSpans(ArcSpans(lo, hi))
}

// InSpans returns copies of the records whose identifier lies in one of
// spans, span by span. The copies' nonces and filters share one
// allocation, each capped at its length.
func (s *Store) InSpans(spans []Span) []pps.Encoded {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ranges := s.rangesLocked(spans)
	n, size := 0, 0
	for _, r := range ranges {
		n += r.to - r.from
		for i := r.from; i < r.to; i++ {
			size += s.recs[i].Bytes()
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]pps.Encoded, 0, n)
	buf := make([]byte, 0, size)
	for _, r := range ranges {
		for _, rec := range s.recs[r.from:r.to] {
			buf, rec.Nonce = appendField(buf, rec.Nonce)
			buf, rec.Filter = appendField(buf, rec.Filter)
			out = append(out, rec)
		}
	}
	return out
}

// appendField appends f to buf, which must have room for it, and returns
// buf and the copy of f, capped at its length; an empty f copies as nil.
func appendField(buf, f []byte) ([]byte, []byte) {
	if len(f) == 0 {
		return buf, nil
	}
	at := len(buf)
	buf = append(buf, f...)
	return buf, buf[at:len(buf):len(buf)]
}

// Span is the closed interval of identifiers [First, Last].
type Span struct{ First, Last uint64 }

// ArcSpans returns the identifiers of the match arc (lo, hi] as closed
// intervals, clockwise from lo: none, one, or two when the arc wraps
// zero. lo == hi denotes the full ring (ring.MatchSpan convention). The
// arc is ids in (IDOf(lo), IDOf(hi)]; the float conversion is monotone,
// so ordering is preserved, and an arc between two points of one id
// holds none.
func ArcSpans(lo, hi ring.Point) []Span {
	if ring.MatchSpan(lo, hi) >= 1 {
		return []Span{{0, math.MaxUint64}}
	}
	loID, hiID := IDOf(lo), IDOf(hi)
	switch {
	case loID < hiID:
		return []Span{{loID + 1, hiID}}
	case loID == hiID && lo < hi:
		return nil
	case loID == math.MaxUint64:
		return []Span{{0, hiID}}
	default: // wrapping: (loID, max] then [0, hiID]
		return []Span{{loID + 1, math.MaxUint64}, {0, hiID}}
	}
}

// Minus returns the identifiers of a that b lacks, as disjoint spans in
// the order of a's. Both are sets of disjoint spans, as ArcSpans returns.
// It is exact: a set minus itself is empty whatever floats made it.
func Minus(a, b []Span) []Span {
	for _, y := range b {
		var rest []Span
		for _, x := range a {
			if y.Last < x.First || x.Last < y.First {
				rest = append(rest, x)
				continue
			}
			if x.First < y.First {
				rest = append(rest, Span{x.First, y.First - 1})
			}
			if y.Last < x.Last {
				rest = append(rest, Span{y.Last + 1, x.Last})
			}
		}
		a = rest
	}
	return a
}

// lowerLocked is the index of the first record with ID >= id.
func (s *Store) lowerLocked(id uint64) int { return s.seekLocked(0, id) }

// upperLocked is the index of the first record with ID > id.
func (s *Store) upperLocked(id uint64) int {
	if id == math.MaxUint64 {
		return len(s.ids)
	}
	return s.seekLocked(0, id+1)
}

// indexRange is the records recs[from:to]. It indexes the internal
// arrays, so it is good only while the read lock that produced it is held.
type indexRange struct{ from, to int }

// rangesLocked returns the records with identifier in spans as index
// ranges, one per span.
func (s *Store) rangesLocked(spans []Span) []indexRange {
	ranges := make([]indexRange, len(spans))
	for i, sp := range spans {
		ranges[i] = indexRange{s.lowerLocked(sp.First), s.upperLocked(sp.Last)}
	}
	return ranges
}

// StoredSpans returns the identifiers a node with range rng holds at
// partitioning level p: the records whose replication arc [x, x+1/p)
// meets the range, ArcSpans of (start-1/p, end], or the whole ring when
// the range and 1/p wrap it. It is the one rule for what a node holds:
// the coordinator routes and pushes by it and RetainStored trims by it,
// in the id space every read's ArcSpans is in, so what a node is given,
// what it keeps and what a sub-query it can serve reads agree exactly.
func StoredSpans(rng ring.Arc, p int) []Span {
	repl := 1 / float64(p)
	if rng.Length+repl >= 1 {
		return ArcSpans(0, 0)
	}
	return ArcSpans(rng.Start.Add(-repl), rng.End())
}

// RetainStored drops every record outside StoredSpans(nodeRange, p)
// (used when p increases or a range shrinks and replicas must be
// dropped, §4.5) and returns the number it deleted.
func (s *Store) RetainStored(nodeRange ring.Arc, p int) int {
	spans := StoredSpans(nodeRange, p)
	if len(spans) == 1 && spans[0] == (Span{0, math.MaxUint64}) {
		return 0 // node stores everything
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ranges := s.rangesLocked(spans)
	// By (from, to): a wrapping set's empty low piece {0, 0} must come
	// before a high piece that starts at 0 too.
	slices.SortFunc(ranges, func(a, b indexRange) int { return cmp.Or(a.from-b.from, a.to-b.to) })
	// Drop the schedules rather than compact them in step: a p increase
	// is rare and the next scan re-derives what survived.
	s.gen++
	s.scheduled.Store(false)
	s.ks = nil
	kept, at := 0, 0
	for _, r := range append(ranges, indexRange{len(s.ids), len(s.ids)}) {
		for _, id := range s.ids[at:r.from] {
			s.touchLocked(id)
		}
		copy(s.ids[kept:], s.ids[r.from:r.to])
		kept += copy(s.recs[kept:], s.recs[r.from:r.to])
		at = r.to
	}
	dropped := len(s.recs) - kept
	// The compaction left the dropped records' final copies sitting in
	// the backing array past kept; zero them so their encrypted blobs
	// are garbage-collectable instead of pinned until the next slice
	// growth.
	clear(s.recs[kept:])
	s.recs, s.ids = s.recs[:kept], s.ids[:kept]
	s.indexBucketsLocked()
	return dropped
}

// MatchOptions tunes the producer/consumer pipeline.
type MatchOptions struct {
	// Threads is the number of matching goroutines (§5.6.3: one per
	// core; Fig 5.5 sweeps this). 0 means 1.
	Threads int
	// BatchSize is the records-per-batch handed to matchers (§5.6.3
	// batches to limit synchronisation). 0 means pps.LaneWindow, the
	// most one lane pass takes.
	BatchSize int
	// Limiter, when set, is invoked by each consumer with the batch
	// length before matching. The cluster experiments install a
	// calibrated sleep here to emulate the heterogeneous hardware of
	// Table 7.1 (see DESIGN.md substitutions). The limiter receives the
	// caller's context and must return promptly once it is cancelled
	// (returning ctx.Err()), so a hedged-away or timed-out sub-query
	// aborts mid-throttle instead of sleeping out the emulated scan.
	Limiter func(ctx context.Context, n int) error
}

// batch is the records-per-batch o asks for.
func (o MatchOptions) batch() int {
	if o.BatchSize > 0 {
		return o.BatchSize
	}
	return pps.LaneWindow
}

// matchJob is one batch for a matcher: records and, from a store that
// keeps them, their key schedules (nil otherwise). A batch gathered from
// short ranges carries its buffer, which the matcher releases once it
// has matched the batch.
type matchJob struct {
	recs []pps.Encoded
	ks   []pps.KeySchedule
	g    *gather
}

// gather is one batch copied together from ranges shorter than a batch
// (a fill of scattered buckets), so that they take one lane pass instead
// of one short one each: a record costs its Encoded header and its
// KeySchedule, ~120 bytes, ~0.5 MB for a pps.LaneWindow batch. The
// buffers are pooled, and one goes back
// only cleared, so that no pooled buffer holds a record's bytes.
type gather struct {
	recs []pps.Encoded
	ks   []pps.KeySchedule
}

var gathers sync.Pool // of *gather

// getGather returns an empty gather with room for n records.
func getGather(n int) *gather {
	g, _ := gathers.Get().(*gather)
	if g == nil || cap(g.recs) < n {
		g = &gather{recs: make([]pps.Encoded, 0, n), ks: make([]pps.KeySchedule, 0, n)}
	}
	return g
}

func (g *gather) release() {
	clear(g.recs)
	clear(g.ks)
	g.recs, g.ks = g.recs[:0], g.ks[:0]
	gathers.Put(g)
}

// matchPool is the consumer side of the §5.6.3 pipeline, shared by the
// in-memory MatchArc and the disk-bound MatchFile: `threads` goroutines
// drain a batch channel through per-thread Runs (each owning a
// zero-allocation PRF kernel), honouring the optional limiter. A
// limiter failure aborts that consumer's matching but keeps draining
// the channel so the producer never blocks; the first such error is
// surfaced by join, because a partially-scanned arc must never look
// like a complete answer.
type matchPool struct {
	wg     sync.WaitGroup
	mu     sync.Mutex
	limErr error
	scan   scanResult // the threads' results merged, ids unordered
}

// scanResult is what a scan found: per query, the matching ids, and the
// records scanned and batches matched, for the memo to keep and count.
type scanResult struct {
	ids     [][]uint64 // ids[i]: the matches of the scan's query i
	scanned int
	batches int
}

// runMatchers starts the consumers. Each thread keeps one Run per query
// and hands every batch to all of them in turn, so a batch is read from
// memory once however many queries it answers; a record counts as
// scanned once.
func runMatchers(ctx context.Context, m *pps.Matcher, qs []pps.Query, threads int, limiter func(context.Context, int) error, jobs <-chan matchJob) *matchPool {
	p := &matchPool{scan: scanResult{ids: make([][]uint64, len(qs))}}
	for t := 0; t < threads; t++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			runs := make([]*pps.Run, len(qs)) // per-thread dynamic predicate ordering
			local := make([][]uint64, len(qs))
			for i, q := range qs {
				runs[i] = m.NewRun(q)
				local[i] = make([]uint64, 0, 64)
			}
			n, batches := 0, 0
			var aborted error
			for job := range jobs {
				// Once aborted, drain the channel so the producer unblocks.
				if aborted == nil && limiter != nil {
					aborted = limiter(ctx, len(job.recs))
				}
				if aborted == nil {
					for i, run := range runs {
						local[i] = run.MatchScheduled(job.recs, job.ks, local[i])
					}
					n += len(job.recs)
					batches++
				}
				if job.g != nil {
					job.g.release()
				}
			}
			p.mu.Lock()
			for i := range local {
				p.scan.ids[i] = append(p.scan.ids[i], local[i]...)
			}
			p.scan.scanned += n
			p.scan.batches += batches
			if aborted != nil && p.limErr == nil {
				p.limErr = aborted
			}
			p.mu.Unlock()
		}()
	}
	return p
}

// join waits for the consumers (the jobs channel must be closed first)
// and returns what they found, the ids unordered, and the first limiter
// error.
func (p *matchPool) join() (scanResult, error) {
	p.wg.Wait()
	return p.scan, p.limErr
}

// activateSchedules derives the key schedule of every record: the
// store's first scan (or the first since RetainStored dropped them) is
// what turns their upkeep on. The derivation runs under the read lock,
// so other scans proceed; installing the result takes the write lock,
// and derives again there only if a write slipped in between the two.
func (s *Store) activateSchedules() {
	s.mu.RLock()
	gen := s.gen
	ks := pps.AppendKeySchedules(make([]pps.KeySchedule, 0, len(s.recs)), s.recs)
	s.mu.RUnlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.scheduled.Load() {
		return
	}
	if s.gen != gen {
		ks = pps.AppendKeySchedules(ks[:0], s.recs)
	}
	s.ks = ks
	s.scheduled.Store(true)
}

// MatchArc runs the encrypted query against every record in (lo, hi]
// using the two-stage pipeline: a producer walks the store feeding a
// bounded channel while consumer threads match. Returns the ids of
// matching records and the number scanned.
func (s *Store) MatchArc(ctx context.Context, m *pps.Matcher, q pps.Query, lo, hi ring.Point, opts MatchOptions) (ids []uint64, scanned int, err error) {
	// The read lock is held until every consumer drains: batches are
	// views into the backing arrays and concurrent inserts would shift them.
	s.mu.RLock()
	defer s.mu.RUnlock()
	for !s.scheduled.Load() {
		s.mu.RUnlock()
		s.activateSchedules()
		s.mu.RLock()
	}
	sc, err := s.scanLocked(ctx, m, []pps.Query{q}, opts, s.rangesLocked(ArcSpans(lo, hi)))
	if err != nil {
		return nil, sc.scanned, err
	}
	return sc.ids[0], sc.scanned, nil
}

// scanLocked matches every query of qs against the records of ranges,
// all through one producer/consumer pipeline, and returns each query's
// matching ids ascending and the number of records scanned. It is the
// one scan MatchArc and the memo's fills and candidate checks run. The
// caller holds the read lock, with the schedules active, until
// scanLocked returns. A range of a batch or more goes to the matchers as
// views into the store, a batch at a time. Shorter ones are packed in
// order, up to a batch a pack: a pack of one goes as a view, a pack of
// more is copied into a pooled gather. A scan that ctx or the limiter cut short
// returns the error and no ids: a partial scan must never look like a
// complete answer.
func (s *Store) scanLocked(ctx context.Context, m *pps.Matcher, qs []pps.Query, opts MatchOptions, ranges []indexRange) (scanResult, error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	batch := opts.batch()
	jobs := make(chan matchJob, 2*threads)
	pool := runMatchers(ctx, m, qs, threads, opts.Limiter, jobs)
	send := func(j matchJob) bool {
		select {
		case <-ctx.Done():
			return false
		case jobs <- j:
			return true
		}
	}
	// Ranges shorter than a batch wait in pending, together at most a
	// batch, and go as one: a view if alone, else copied into a gather.
	var pending []indexRange
	held := 0
	flush := func() bool {
		defer func() { pending, held = pending[:0], 0 }()
		if len(pending) == 1 {
			r := pending[0]
			return send(matchJob{recs: s.recs[r.from:r.to], ks: s.ks[r.from:r.to]})
		}
		g := getGather(batch)
		for _, r := range pending {
			g.recs = append(g.recs, s.recs[r.from:r.to]...)
			g.ks = append(g.ks, s.ks[r.from:r.to]...)
		}
		ok := send(matchJob{g.recs, g.ks, g})
		if !ok {
			g.release()
		}
		return ok
	}
feed:
	for _, r := range ranges {
		switch n := r.to - r.from; {
		case n == 0:
			continue
		case n < batch:
			if held+n > batch && !flush() {
				break feed
			}
			pending, held = append(pending, r), held+n
			continue
		}
		for from := r.from; from < r.to; from += batch {
			end := min(from+batch, r.to)
			if !send(matchJob{recs: s.recs[from:end], ks: s.ks[from:end]}) {
				break feed
			}
		}
	}
	if len(pending) > 0 {
		flush()
	}
	close(jobs)
	sc, limErr := pool.join()
	if err := ctx.Err(); err != nil {
		return scanResult{scanned: sc.scanned}, err
	}
	if limErr != nil {
		return scanResult{scanned: sc.scanned}, limErr
	}
	for _, ids := range sc.ids {
		slices.Sort(ids)
	}
	return sc, nil
}
