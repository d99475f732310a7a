package pps

import (
	"cmp"
	"fmt"
	"slices"
)

// ServerParams are the public parameters a matching server needs: only
// the Bloom filter size. No key material ever reaches the server.
type ServerParams struct {
	MBits int
}

// matchBloomBits is the generic (allocating) server-side matching
// reference used by MatchOne. The hot path lives in Run, which evaluates
// the same function through a reusable zero-allocation PRF kernel; this
// form is kept as the plain-Go oracle the kernel is tested (and
// benchmarked, BenchmarkMatchKernel/legacy) against. A filter shorter
// than mBits cannot have come from this scheme's encoder and matches
// nothing.
func matchBloomBits(mBits int, q BloomQuery, m BloomMetadata) bool {
	if len(m.Filter)*8 < mBits {
		return false
	}
	for _, x := range q.Trapdoor {
		pos := int(prfUint64(m.Nonce, x) % uint64(mBits))
		if !getBit(m.Filter, pos) {
			return false
		}
	}
	return true
}

// Matcher evaluates encrypted queries against encrypted metadata on the
// server. It is stateless and safe for concurrent use.
type Matcher struct {
	mBits int
}

// NewMatcher builds a matcher from public parameters.
func NewMatcher(p ServerParams) (*Matcher, error) {
	if p.MBits <= 0 {
		return nil, fmt.Errorf("pps: matcher needs positive MBits, got %d", p.MBits)
	}
	return &Matcher{mBits: p.MBits}, nil
}

// MatchOne evaluates a single predicate. One-shot convenience: it pays
// a fresh HMAC key schedule per hash evaluation. Batch callers should
// use a Run, whose kernel is keyed once per record.
func (m *Matcher) MatchOne(q BloomQuery, md BloomMetadata) bool {
	return matchBloomBits(m.mBits, q, md)
}

// SelectivitySamples is the number of metadata sampled before predicates
// are re-ordered by selectivity. §5.6.5 derives 225 from Chebyshev's
// inequality for ±0.1 selectivity accuracy at ~89% confidence.
const SelectivitySamples = 225

// Run is the per-query matching state implementing dynamic predicate
// ordering (§5.6.5): the first SelectivitySamples records are matched
// against every predicate while counting per-predicate selectivity;
// afterwards predicates are sorted (most selective first for AND, least
// selective first for OR) and evaluation short-circuits. A Run of one
// predicate has nothing to order and samples nothing.
//
// Run owns a reusable PRF kernel, keyed once per record — from the
// record's nonce, or from a KeySchedule the caller derived earlier — and
// pads each trapdoor element once, so the settled-order steady state
// performs zero heap allocations per record.
//
// On a CPU with AVX-512F, MatchScheduled (and so MatchBatch) takes every
// record on the lane path (lanes.go), sampled records included, with
// the per-record path's ids, Sampled and Order; Match stays per-record,
// as does a Run whose trapdoor elements are not all 32 bytes.
//
// Run is not safe for concurrent use; create one per matching thread
// and merge results, or share one behind the store's batching.
type Run struct {
	m       *Matcher
	q       Query
	padded  []paddedMsg // every trapdoor element with its SHA-256 padding, predicate after predicate
	first   []int32     // predicate p's elements are padded[first[p]:first[p+1]]
	counts  []int       // matches per predicate during sampling
	sampled int
	order   []int // settled evaluation order: perm once settled, nil before
	perm    []int // the storage order is settled into
	prf     prfKernel
	mod     modulus // reduces a digest's leading 8 bytes mod MBits
	lanes   *lanes  // the lane path's state; nil where it cannot run
}

// NewRun starts the matching state for one query. Every trapdoor
// element is padded into one buffer, sized exactly: a Run costs a fixed
// handful of allocations whatever the query's length.
func (m *Matcher) NewRun(q Query) *Run {
	n := len(q.Preds)
	elems, size := 0, 0
	for _, p := range q.Preds {
		elems += len(p.Trapdoor)
		for _, x := range p.Trapdoor {
			size += paddedLen(len(x))
		}
	}
	ints := make([]int, 3*n)
	r := &Run{m: m, q: q, counts: ints[:n:n], perm: ints[n : 2*n : 2*n], first: make([]int32, n+1), padded: make([]paddedMsg, 0, elems), mod: newModulus(m.mBits)}
	blocks := make([]byte, 0, size)
	for i, p := range q.Preds {
		r.first[i] = int32(len(r.padded))
		for _, x := range p.Trapdoor {
			from := len(blocks)
			blocks = appendPadded(blocks, x)
			r.padded = append(r.padded, paddedMsg{blocks[from:len(blocks):len(blocks)], len(x)})
		}
	}
	r.first[n] = int32(len(r.padded))
	r.prf.init()
	r.lanes = newLanes(r.padded, ints[2*n:])
	return r
}

// Sampled reports how many records contributed to selectivity estimates.
func (r *Run) Sampled() int { return r.sampled }

// Order returns the settled predicate order, or nil while sampling.
func (r *Run) Order() []int { return r.order }

// evalPred checks predicate p against the record the kernel is currently
// keyed for, whose filter matchKeyed has length-checked.
func (r *Run) evalPred(p int, filter []byte) bool {
	for _, x := range r.padded[r.first[p]:r.first[p+1]] {
		if !getBit(filter, r.mod.reduce(r.prf.sum64(x))) {
			return false
		}
	}
	return true
}

// Match evaluates the full query against one record.
func (r *Run) Match(md BloomMetadata) bool {
	r.prf.setKey(md.Nonce)
	return r.matchKeyed(md.Filter)
}

// matchKeyed is the per-record entry every scan shares: the kernel is
// keyed for the record, filter is the record's. A filter shorter than
// MBits (nothing upstream checks what a writer sent) matches nothing.
func (r *Run) matchKeyed(filter []byte) bool {
	if len(r.q.Preds) == 0 || len(filter)*8 < r.m.mBits {
		return false
	}
	if len(r.q.Preds) == 1 {
		return r.evalPred(0, filter)
	}
	if r.order == nil {
		return r.sampleMatch(filter)
	}
	return r.orderedMatch(filter)
}

// MatchBatch evaluates the query against a batch of records, appending
// matching IDs to out and returning the extended slice. It is the
// §5.6.3 consumer entry point: with a settled order and a pre-grown out
// slice the whole scan is allocation-free.
func (r *Run) MatchBatch(recs []Encoded, out []uint64) []uint64 {
	return r.MatchScheduled(recs, nil, out)
}

// MatchScheduled is MatchBatch for a caller that holds the records' key
// schedules (ks[i] = the schedule of recs[i].Nonce, from
// AppendKeySchedules): installing one replaces the per-record key
// derivation, and the lane path takes the whole batch, sampled records
// included, where the CPU has one. A nil ks derives from the nonces.
func (r *Run) MatchScheduled(recs []Encoded, ks []KeySchedule, out []uint64) []uint64 {
	if r.lanes != nil && r.prf.path != pathGeneric { // hmac16el takes schedules
		return r.matchLanes(recs, ks, out)
	}
	scheduled := ks != nil && r.prf.path != pathGeneric
	for i := range recs {
		if scheduled {
			r.prf.install(&ks[i])
		} else {
			r.prf.setKey(recs[i].Nonce)
		}
		if r.matchKeyed(recs[i].Filter) {
			out = append(out, recs[i].ID)
		}
	}
	return out
}

func (r *Run) sampleMatch(filter []byte) bool {
	// Evaluate every predicate to learn selectivities.
	all := true
	any := false
	for i := range r.q.Preds {
		if r.evalPred(i, filter) {
			r.counts[i]++
			any = true
		} else {
			all = false
		}
	}
	r.sampled++
	if r.sampled >= SelectivitySamples {
		r.settle()
	}
	if r.q.Op == And {
		return all
	}
	return any
}

// settle orders the predicates by their sampled counts, ties in index
// order, into the Run's own storage: settling allocates nothing.
func (r *Run) settle() {
	for i := range r.perm {
		r.perm[i] = i
	}
	and := r.q.Op == And // AND: fewest matches (most selective) first
	slices.SortStableFunc(r.perm, func(a, b int) int {
		if and {
			return cmp.Compare(r.counts[a], r.counts[b])
		}
		return cmp.Compare(r.counts[b], r.counts[a])
	})
	r.order = r.perm
}

func (r *Run) orderedMatch(filter []byte) bool {
	if r.q.Op == And {
		for _, i := range r.order {
			if !r.evalPred(i, filter) {
				return false
			}
		}
		return true
	}
	for _, i := range r.order {
		if r.evalPred(i, filter) {
			return true
		}
	}
	return false
}

// MatchAll is a convenience helper matching a query against a slice of
// records, returning the IDs of matches. It uses a fresh Run, so
// dynamic ordering is exercised exactly as a server would.
func (m *Matcher) MatchAll(q Query, mds []Encoded) []uint64 {
	run := m.NewRun(q)
	return run.MatchBatch(mds, nil)
}
