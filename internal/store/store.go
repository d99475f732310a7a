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
// Insert has three cases. One record: binary search, then one memmove of
// the records above it if its id is fresh, O(log n) or O(n). A batch of
// k records whose ids the store all holds already (an at-least-once
// re-delivery, an update of existing objects): sorted, located by search
// from the previous position and overwritten in place, O(k log k +
// k log n), nothing moves. A batch with fresh ids: the same search, one
// growth of the slices, and each run of stored records between two
// insertion points moved up once, O(k log k + n). The key schedules move
// in step with the records in every case.
//
// A store that has been scanned also holds, per record and by value, the
// 64-byte HMAC key schedule of the record's nonce (pps.KeySchedule), so
// a scan keys its matcher with two copies instead of two SHA-256
// compressions per record per query. The schedules are derived at the
// first MatchArc and maintained by Insert and Delete from then on; a
// store that is never scanned (the coordinator's backend, a node that
// only ingests) derives and holds none.
//
// The ring is also cut into numBuckets fixed buckets (the top bits of
// the identifier), and the store stamps a bucket with its generation
// whenever the records it holds there change. The match memo (memo.go)
// rests on those stamps: an answer remembered for a bucket is current
// exactly while the bucket's stamp is no newer than the answer. Every
// mutator of recs (Insert, Delete, RetainStored, LoadFrom) stamps what
// it changes through touchLocked or touchAllLocked, under the write lock
// that covers the change; a new mutator must do the same, and
// FuzzMemoEqualsScan is the test that catches one that forgets.
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
// space, the space arcRangesLocked searches, so which bucket a record
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
	recs []pps.Encoded // sorted by ID, unique

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

	// memo is built by the first memoized lookup (MatchArcMemo), so a
	// store that never serves one carries only this pointer.
	memo atomic.Pointer[matchMemo]
}

// touchLocked stamps the bucket of a record that the caller, holding the
// write lock and having advanced gen, inserts, replaces or removes.
func (s *Store) touchLocked(id uint64) { s.changed[bucketOf(id)] = s.gen }

// touchAllLocked stamps every bucket, for a mutator that replaces the
// contents wholesale.
func (s *Store) touchAllLocked() {
	for b := range s.changed {
		s.changed[b] = s.gen
	}
}

// New returns an empty store.
func New() *Store { return &Store{} }

// Len returns the number of records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.recs)
}

// Insert adds or replaces records (replica pushes are idempotent).
// Single-record inserts take the binary-search + shift fast path.
// A batch of k records into n stored ones is sorted and located by
// search, O(k log k + k log n); when the store already holds every id
// (a re-delivery, an update of existing objects) that is the whole
// cost, and when some are fresh the stored records above the first
// fresh id move once, O(n), instead of the O(k·n) memmove of per-record
// insertion. Sorting, and deriving the batch's key schedules when the
// store keeps them, happen before the write lock is taken.
func (s *Store) Insert(recs ...pps.Encoded) {
	if len(recs) == 0 {
		return
	}
	if len(recs) > 1 {
		recs = sortedUnique(recs)
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
	fresh := i == len(s.recs) || s.recs[i].ID != r.ID
	if fresh {
		s.recs = append(s.recs, pps.Encoded{})
		copy(s.recs[i+1:], s.recs[i:])
	}
	s.recs[i] = r
	if !s.scheduled.Load() {
		return
	}
	if fresh {
		s.ks = append(s.ks, pps.KeySchedule{})
		copy(s.ks[i+1:], s.ks[i:])
	}
	s.ks[i] = ks[0]
}

// sortedUnique returns a copy of recs sorted by ID with one record per
// ID: the last occurrence, preserving per-record insertion semantics.
func sortedUnique(recs []pps.Encoded) []pps.Encoded {
	batch := append([]pps.Encoded(nil), recs...)
	// Stable, so input order survives within an ID and the final write wins.
	slices.SortStableFunc(batch, func(a, b pps.Encoded) int { return cmp.Compare(a.ID, b.ID) })
	w := 0
	for i := range batch {
		if i+1 < len(batch) && batch[i+1].ID == batch[i].ID {
			continue
		}
		batch[w] = batch[i]
		w++
	}
	return batch[:w]
}

// seekLocked is the index of the first record at or after from with
// ID >= id, found by doubling steps from `from` and bisecting the last:
// O(log gap), so a sorted batch locates all its ids in O(k log(n/k))
// and a dense one in the same steps as a linear walk.
func (s *Store) seekLocked(from int, id uint64) int {
	n := len(s.recs)
	lo, step := from, 1 // every record before lo has ID < id
	for lo+step <= n && s.recs[lo+step-1].ID < id {
		lo += step
		step *= 2
	}
	hi := min(lo+step-1, n)
	return lo + sort.Search(hi-lo, func(i int) bool { return s.recs[lo+i].ID >= id })
}

// mergeLocked bulk-inserts a sortedUnique batch. It locates every id
// first; ids the store holds are overwritten where they are, and when
// some are fresh the slices grow once and the runs of old records
// between insertion points move up with copy, back to front. ks holds
// the batch's schedules when the store keeps them and moves in step
// with the records.
func (s *Store) mergeLocked(batch []pps.Encoded, ks []pps.KeySchedule) {
	old := len(s.recs)
	pos := make([]int, len(batch)) // pos[j]: first index with ID >= batch[j].ID
	fresh, at := 0, 0
	for j := range batch {
		at = s.seekLocked(at, batch[j].ID)
		pos[j] = at
		if at == old || s.recs[at].ID != batch[j].ID {
			fresh++
		}
	}
	scheduled := s.scheduled.Load()
	if fresh > 0 {
		s.recs = append(s.recs, make([]pps.Encoded, fresh)...)
		if scheduled {
			s.ks = append(s.ks, make([]pps.KeySchedule, fresh)...)
		}
	}
	// shift is the number of fresh ids at or below batch[j]: how far the
	// old records above it move. Writes land above pos[j], so recs[pos[j]]
	// is still the old record when it is compared. Once shift is zero the
	// rest of the batch is overwritten in place.
	end, shift := old, fresh
	for j := len(batch) - 1; j >= 0; j-- {
		p := pos[j]
		from := p
		replaces := p < old && s.recs[p].ID == batch[j].ID
		if replaces {
			from++
		}
		if shift > 0 {
			copy(s.recs[from+shift:end+shift], s.recs[from:end])
			if scheduled {
				copy(s.ks[from+shift:end+shift], s.ks[from:end])
			}
		}
		if !replaces {
			shift--
		}
		s.recs[p+shift] = batch[j]
		if scheduled {
			s.ks[p+shift] = ks[j]
		}
		end = p
	}
}

// Delete removes records by id; absent ids are ignored. A single id
// takes the binary-search + shift fast path; batches sort the ids and
// compact the store in one forward pass, so deleting k of n records
// costs O(k log k + n) instead of one O(n) memmove per id. Freed tail
// slots are zeroed so the removed records' blobs are GC-eligible.
func (s *Store) Delete(ids ...uint64) {
	if len(ids) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.gen++
	scheduled := s.scheduled.Load()
	if len(ids) == 1 {
		id := ids[0]
		i := s.lowerLocked(id)
		if i < len(s.recs) && s.recs[i].ID == id {
			s.touchLocked(id)
			copy(s.recs[i:], s.recs[i+1:])
			clear(s.recs[len(s.recs)-1:])
			s.recs = s.recs[:len(s.recs)-1]
			if scheduled {
				s.ks = append(s.ks[:i], s.ks[i+1:]...)
			}
		}
		return
	}
	del := append([]uint64(nil), ids...)
	sort.Slice(del, func(a, b int) bool { return del[a] < del[b] })
	w := 0
	j := 0
	for i := range s.recs {
		id := s.recs[i].ID
		for j < len(del) && del[j] < id {
			j++
		}
		if j < len(del) && del[j] == id {
			s.touchLocked(id)
			continue
		}
		s.recs[w] = s.recs[i]
		if scheduled {
			s.ks[w] = s.ks[i]
		}
		w++
	}
	clear(s.recs[w:])
	s.recs = s.recs[:w]
	if scheduled {
		s.ks = s.ks[:w]
	}
}

// Get returns the record with the given id.
func (s *Store) Get(id uint64) (pps.Encoded, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	i := s.lowerLocked(id)
	if i < len(s.recs) && s.recs[i].ID == id {
		return s.recs[i], true
	}
	return pps.Encoded{}, false
}

// InArc returns copies of the records whose ring point lies in the
// half-open arc (lo, hi] — the match set of a sub-query. The arc may
// wrap zero, producing at most two contiguous slices internally.
func (s *Store) InArc(lo, hi ring.Point) []pps.Encoded {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []pps.Encoded
	for _, r := range s.arcRangesLocked(lo, hi) {
		out = append(out, s.recs[r.from:r.to]...)
	}
	return out
}

// CountArc returns the number of records in (lo, hi].
func (s *Store) CountArc(lo, hi ring.Point) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	n := 0
	for _, r := range s.arcRangesLocked(lo, hi) {
		n += r.to - r.from
	}
	return n
}

// idSpan is a closed interval of identifiers.
type idSpan struct{ first, last uint64 }

// arcSpans returns the identifiers of the match arc (lo, hi] as closed
// intervals, clockwise from lo: one, or two when the arc wraps zero.
// lo == hi denotes the full ring (ring.MatchSpan convention). The arc is
// ids in (IDOf(lo), IDOf(hi)]; the float conversion is monotone, so
// ordering is preserved.
func arcSpans(lo, hi ring.Point) []idSpan {
	if ring.MatchSpan(lo, hi) >= 1 {
		return []idSpan{{0, math.MaxUint64}}
	}
	loID, hiID := IDOf(lo), IDOf(hi)
	switch {
	case loID < hiID:
		return []idSpan{{loID + 1, hiID}}
	case loID == math.MaxUint64:
		return []idSpan{{0, hiID}}
	default: // wrapping: (loID, max] then [0, hiID]
		return []idSpan{{loID + 1, math.MaxUint64}, {0, hiID}}
	}
}

// lowerLocked is the index of the first record with ID >= id.
func (s *Store) lowerLocked(id uint64) int {
	return sort.Search(len(s.recs), func(i int) bool { return s.recs[i].ID >= id })
}

// upperLocked is the index of the first record with ID > id.
func (s *Store) upperLocked(id uint64) int {
	return sort.Search(len(s.recs), func(i int) bool { return s.recs[i].ID > id })
}

// indexRange is the records recs[from:to]. It indexes the internal
// arrays, so it is good only while the read lock that produced it is held.
type indexRange struct{ from, to int }

// arcRangesLocked returns the records with point in (lo, hi] as index
// ranges, one per span of the arc.
func (s *Store) arcRangesLocked(lo, hi ring.Point) []indexRange {
	spans := arcSpans(lo, hi)
	ranges := make([]indexRange, len(spans))
	for i, sp := range spans {
		ranges[i] = indexRange{s.lowerLocked(sp.first), s.upperLocked(sp.last)}
	}
	return ranges
}

// RetainStored drops every record outside the node's stored set for the
// given range and partitioning level (used when p increases and replicas
// must be dropped, §4.5). It returns the number of deleted records.
// The stored set of a node with range [start, end) is (start-1/p, end).
func (s *Store) RetainStored(nodeRange ring.Arc, p int) int {
	repl := 1 / float64(p)
	keepLo := nodeRange.Start.Add(-repl)
	keepHi := nodeRange.End()
	if nodeRange.Length+repl >= 1 {
		return 0 // node stores everything
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Drop the schedules rather than compact them in step: a p increase
	// is rare and the next scan re-derives what survived.
	s.gen++
	s.scheduled.Store(false)
	s.ks = nil
	old := s.recs
	kept := s.recs[:0]
	dropped := 0
	for _, r := range s.recs {
		pt := PointOf(r.ID)
		d := keepLo.DistCW(pt)
		if d > 0 && d < keepLo.DistCW(keepHi) {
			kept = append(kept, r)
		} else {
			s.touchLocked(r.ID)
			dropped++
		}
	}
	// The compaction left the dropped records' final copies sitting in
	// the backing array past len(kept); zero them so their encrypted
	// blobs are garbage-collectable instead of pinned until the next
	// slice growth.
	clear(old[len(kept):])
	s.recs = kept
	return dropped
}

// MatchOptions tunes the producer/consumer pipeline.
type MatchOptions struct {
	// Threads is the number of matching goroutines (§5.6.3: one per
	// core; Fig 5.5 sweeps this). 0 means 1.
	Threads int
	// BatchSize is the records-per-batch handed to matchers (§5.6.3
	// batches to limit synchronisation). 0 means 256.
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

// matchJob is one batch for a matcher: records and, from a store that
// keeps them, their key schedules (nil otherwise).
type matchJob struct {
	recs []pps.Encoded
	ks   []pps.KeySchedule
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
	wg      sync.WaitGroup
	mu      sync.Mutex
	matched []uint64
	total   int
	limErr  error
}

func runMatchers(ctx context.Context, m *pps.Matcher, q pps.Query, threads int, limiter func(context.Context, int) error, jobs <-chan matchJob) *matchPool {
	p := &matchPool{}
	for t := 0; t < threads; t++ {
		p.wg.Add(1)
		go func() {
			defer p.wg.Done()
			run := m.NewRun(q) // per-thread dynamic predicate ordering
			local := make([]uint64, 0, 64)
			n := 0
			var aborted error
			for job := range jobs {
				if aborted != nil {
					continue // drain the channel so the producer unblocks
				}
				if limiter != nil {
					if err := limiter(ctx, len(job.recs)); err != nil {
						aborted = err
						continue
					}
				}
				local = run.MatchScheduled(job.recs, job.ks, local)
				n += len(job.recs)
			}
			p.mu.Lock()
			p.matched = append(p.matched, local...)
			p.total += n
			if aborted != nil && p.limErr == nil {
				p.limErr = aborted
			}
			p.mu.Unlock()
		}()
	}
	return p
}

// join waits for the consumers (the jobs channel must be closed first)
// and returns the merged matches, records scanned, and the first
// limiter error.
func (p *matchPool) join() ([]uint64, int, error) {
	p.wg.Wait()
	return p.matched, p.total, p.limErr
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
	return s.scanLocked(ctx, m, q, opts, s.arcRangesLocked(lo, hi))
}

// scanLocked matches q against the records of ranges, all through one
// producer/consumer pipeline, and returns the matching ids ascending
// and the number of records scanned. It is the one scan both MatchArc
// and the memo's fill run. The caller holds the read lock, with the
// schedules active, until scanLocked returns. A scan that ctx or the
// limiter cut short returns the error and no ids: a partial scan must
// never look like a complete answer.
func (s *Store) scanLocked(ctx context.Context, m *pps.Matcher, q pps.Query, opts MatchOptions, ranges []indexRange) (ids []uint64, scanned int, err error) {
	threads := opts.Threads
	if threads <= 0 {
		threads = 1
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 256
	}
	jobs := make(chan matchJob, 2*threads)
	pool := runMatchers(ctx, m, q, threads, opts.Limiter, jobs)
feed:
	for _, r := range ranges {
		for from := r.from; from < r.to; from += batch {
			end := min(from+batch, r.to)
			select {
			case <-ctx.Done():
				break feed
			case jobs <- matchJob{s.recs[from:end], s.ks[from:end]}:
			}
		}
	}
	close(jobs)
	matched, total, limErr := pool.join()
	if err := ctx.Err(); err != nil {
		return nil, total, err
	}
	if limErr != nil {
		return nil, total, limErr
	}
	sort.Slice(matched, func(a, b int) bool { return matched[a] < matched[b] })
	return matched, total, nil
}
