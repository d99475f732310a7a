package pps

import (
	"encoding/binary"
	"math/bits"
	"sync"
)

// The lane path: on CPUs with AVX-512F (useLanes), a scan evaluates 16
// records at once, element-major. A pass over a window of up to
// LaneWindow records keeps the indices of the records still undecided
// and takes the order's predicates, and each predicate's elements, one
// after another: an element pass hands the candidates to hmac16el 16 at
// a time and keeps, in place and in record order, those whose bit is
// set. AND keeps the candidates a predicate holds for; OR records them
// as matches and goes on with the rest. An empty predicate holds.
//
// Every lane of a call evaluates the same element, so its inner message
// schedule, W[t]+K[t], is computed once, when the Run starts, and each
// round adds one broadcast word; lane i's KeySchedule is loaded by its
// index into the window. A call costs under a third of 16 SHA-NI
// evaluations. A call's bits are tested after the next call, which
// hides the prefetch of their filter bytes. The last call of an element
// pads its dead lanes with a live index and ignores their results; one
// with fewer than laneMin live lanes runs them on the per-record kernel.
// Hosts without AVX-512F run the per-record loop unchanged. (The
// encoder blinds on hmac16, the other shape: one key, 16 elements a
// call; see Bloom.encrypt.)
//
// A settled Run (or one with a single predicate) makes one pass per
// window in its settled order. A Run that is still sampling makes one
// pass per predicate over the records that complete its quota, each in
// that predicate alone: the bitmaps count toward the selectivities and
// combine by AND or OR into the verdicts, and the Run settles exactly at
// SelectivitySamples records, as the per-record loop would.
//
// The lane path gives exactly the per-record loop's answer, ids in
// record order, with the same Sampled and Order after every call, and
// evaluates the same (record, element) pairs; FuzzLanesMatchPerRecord
// and TestLanesEvaluatePerRecordPairs compare the two. A record whose
// filter is shorter than MBits is never a candidate, matches nothing
// and is not a sample.

const (
	// laneMin: a call with fewer live lanes than this runs them on the
	// per-record kernel, where a 16-lane call would cost more than
	// their SHA-NI evaluations.
	laneMin = 6
	// LaneWindow is the most records one lane pass takes: the size of a
	// hit bitmap, and the records a store hands a matcher at once.
	LaneWindow = 64 * 64
)

// lanes is a Run's lane path state. It lives in the Run, not on the
// matcher goroutine's stack, and hmac16el takes pointers into it.
type lanes struct {
	// wk[e] is element e's inner block scheduled, W[t]+K[t]: every
	// trapdoor element of the Run, indexed as Run.padded.
	wk [][64]uint32

	// preds[p] is p: preds[p:p+1] is the one-predicate order a sampling
	// pass evaluates predicate p in, and the whole of a one-predicate
	// Run's order, as it never samples.
	preds []int

	sc    *scratch                // borrowed for a MatchScheduled call
	h     [2][16]uint32           // hmac16el's digests, words 0 and 1
	hits  [LaneWindow / 64]uint64 // bit i: record i of the window matched
	evals int                     // (record, element) pairs evaluated, dead lanes not counted
}

// k256 is SHA-256's round constants (FIPS 180-4 §4.2.2).
var k256 = [64]uint32{
	0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
	0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
	0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
	0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
	0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
	0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
	0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
	0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
}

// scheduleWK writes to wk W[t]+K[t] of the single block b: the message
// schedule of FIPS 180-4 §6.2.2, plus the round constants.
func scheduleWK(wk *[64]uint32, b []byte) {
	b = b[:prfBlockSize]
	for t := range 16 {
		wk[t] = binary.BigEndian.Uint32(b[4*t:])
	}
	for t := 16; t < 64; t++ {
		x, y := wk[t-15], wk[t-2]
		s0 := bits.RotateLeft32(x, -7) ^ bits.RotateLeft32(x, -18) ^ x>>3
		s1 := bits.RotateLeft32(y, -17) ^ bits.RotateLeft32(y, -19) ^ y>>10
		wk[t] = s1 + wk[t-7] + s0 + wk[t-16]
	}
	for t := range wk {
		wk[t] += k256[t]
	}
}

// newLanes returns the lane state for the Run's padded elements, with
// preds (one int per predicate) as its storage; or nil if the lane path
// cannot run it: no AVX-512F, no predicate, or an element hmac16el
// cannot take (not 32 bytes, so not one padded block).
func newLanes(padded []paddedMsg, preds []int) *lanes {
	if !useLanes || len(preds) == 0 {
		return nil
	}
	l := &lanes{wk: make([][64]uint32, len(padded)), preds: preds}
	for i := range preds {
		l.preds[i] = i
	}
	for e, x := range padded {
		if x.n != 32 {
			return nil
		}
		scheduleWK(&l.wk[e], x.blocks)
	}
	return l
}

// scratch is a lane path's working storage, pooled: a Run borrows one
// for the length of a MatchScheduled call.
type scratch struct {
	// The candidate lists, indices into the window: an element pass
	// compacts one in place and appends the records it rejects to the
	// other. Each has room for a last call's padding.
	cand [2][LaneWindow + 15]uint16
	ks   []KeySchedule // a window's, for a caller that has none
}

var scratches = sync.Pool{New: func() any { return new(scratch) }}

// matchLanes is MatchScheduled's lane path. A nil ks derives each
// window's schedules before its pass.
func (r *Run) matchLanes(recs []Encoded, ks []KeySchedule, out []uint64) []uint64 {
	sc := scratches.Get().(*scratch)
	r.lanes.sc = sc
	defer func() { r.lanes.sc = nil; scratches.Put(sc) }()
	derive := ks == nil
	if derive && sc.ks == nil {
		sc.ks = make([]KeySchedule, 0, LaneWindow)
	}
	for len(recs) > 0 {
		n := min(len(recs), LaneWindow)
		sampling := r.order == nil && len(r.q.Preds) > 1
		samples := 0
		if sampling {
			n, samples = r.sampleSpan(recs[:n])
		}
		var wks []KeySchedule
		if derive {
			wks = appendKeySchedules(&r.prf, sc.ks[:0], recs[:n])
		} else {
			wks, ks = ks[:n], ks[n:]
		}
		if sampling {
			out = r.sampleLanes(recs[:n], wks, samples, out)
		} else {
			order := r.order
			if order == nil {
				order = r.lanes.preds
			}
			r.lanePass(recs[:n], wks, order, r.q.Op == And)
			out = appendHits(r.lanes.hits[:(n+63)/64], recs[:n], out)
		}
		recs = recs[n:]
	}
	return out
}

// sampleSpan is how many of recs sampling takes next: through the record
// that completes the quota of SelectivitySamples samples, or all of
// them. A sample is a record whose filter is long enough to match
// (matchKeyed's rule); samples is how many the span holds.
func (r *Run) sampleSpan(recs []Encoded) (n, samples int) {
	quota := SelectivitySamples - r.sampled
	for n < len(recs) && samples < quota {
		if len(recs[n].Filter)*8 >= r.m.mBits {
			samples++
		}
		n++
	}
	return n, samples
}

// sampleLanes samples recs, which hold samples samples and no more than
// the quota left, on the lanes: one pass per predicate, in that
// predicate alone (a one-predicate order evaluates the same under AND
// and OR). Each pass's hits count toward its predicate and combine into
// the verdicts, on a bitmap on the stack; the Run then settles if the
// quota is met, exactly as sampleMatch would have after these records.
func (r *Run) sampleLanes(recs []Encoded, ks []KeySchedule, samples int, out []uint64) []uint64 {
	l := r.lanes
	and := r.q.Op == And
	var verdicts [LaneWindow / 64]uint64
	words := (len(recs) + 63) / 64
	for p := range r.q.Preds {
		r.lanePass(recs, ks, l.preds[p:p+1], true)
		for w, h := range l.hits[:words] {
			l.hits[w] = 0
			r.counts[p] += bits.OnesCount64(h)
			switch {
			case p == 0:
				verdicts[w] = h
			case and:
				verdicts[w] &= h
			default:
				verdicts[w] |= h
			}
		}
	}
	r.sampled += samples
	if r.sampled >= SelectivitySamples {
		r.settle()
	}
	return appendHits(verdicts[:words], recs, out)
}

// appendHits appends the ids of the records whose bits are set in hits
// (bit i: recs[i] matched), in record order, and clears hits.
func appendHits(hits []uint64, recs []Encoded, out []uint64) []uint64 {
	for w, h := range hits {
		for b := h; b != 0; b &= b - 1 {
			out = append(out, recs[64*w+bits.TrailingZeros64(b)].ID)
		}
		hits[w] = 0
	}
	return out
}

// lanePass takes recs (at most LaneWindow of them, ks their schedules)
// through the lanes in order, AND or OR, and leaves the matches in
// l.hits.
func (r *Run) lanePass(recs []Encoded, ks []KeySchedule, order []int, and bool) {
	l := r.lanes
	cand, other := l.sc.cand[0][:0], 1
	for i := range recs {
		if len(recs[i].Filter)*8 >= r.m.mBits {
			cand = append(cand, uint16(i))
		}
	}
	for _, p := range order {
		held, rest := cand, l.sc.cand[other][:0]
		for e := r.first[p]; e < r.first[p+1] && len(held) > 0; e++ {
			held, rest = r.elementPass(recs, ks, int(e), held, rest)
		}
		if and {
			cand = held
			continue
		}
		l.hit(held) // OR: decided; the rest try the next predicate
		cand, other = rest, 1-other
	}
	if and {
		l.hit(cand)
	}
}

// elementPass evaluates element e for the records of cand and returns
// those whose bit is set, compacted in place in record order, and rest
// with those whose bit is clear appended. A call's bits are tested
// after the next call: their filter bytes are prefetched before it and
// arrive while it runs.
func (r *Run) elementPass(recs []Encoded, ks []KeySchedule, e int, cand, rest []uint16) (kept, rejected []uint16) {
	l := r.lanes
	n, nk, nr := len(cand), 0, len(rest)
	rest = rest[:nr+n]
	var (
		at    [2][16]*byte // the filter byte of each lane's bit: this call's, the last's
		shift [2][16]uint8
	)
	for k, c := 0, 0; k < n+16; k, c = k+16, 1-c {
		if k < n {
			live := min(16, n-k)
			if live >= laneMin {
				lane := cand[k : k+16 : k+16]
				for i := live; i < 16; i++ {
					lane[i] = cand[n-1] // a dead lane: padded, its result ignored
				}
				hmac16el(&ks[0], (*[16]uint16)(lane), &l.wk[e], &l.h)
			} else {
				for i, rec := range cand[k:n] {
					r.prf.install(&ks[rec])
					d := r.prf.hmac(r.padded[e])
					l.h[0][i], l.h[1][i] = d[0], d[1]
				}
			}
			for i := range 16 {
				j := min(i, live-1) // a dead lane: the last live one's byte
				pos := r.mod.reduce(uint64(l.h[0][j])<<32 | uint64(l.h[1][j]))
				at[c][i], shift[c][i] = &recs[cand[k+j]].Filter[pos/8], uint8(pos%8)
			}
			prefetch16(&at[c])
		}
		if k == 0 {
			continue
		}
		for i, rec := range cand[k-16 : min(k, n)] {
			set := int(*at[1-c][i] >> shift[1-c][i] & 1)
			cand[nk], rest[nr] = rec, rec
			nk, nr = nk+set, nr+1-set
		}
	}
	l.evals += n
	return cand[:nk], rest[:nr]
}

// hit records that the records of recs (indices into the window)
// matched.
func (l *lanes) hit(recs []uint16) {
	for _, rec := range recs {
		l.hits[rec/64] |= 1 << (rec % 64)
	}
}
