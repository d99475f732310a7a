package pps

import (
	"encoding/binary"
	"math/bits"
)

// The lane path: on CPUs with AVX-512F (useLanes), a scan advances 16
// records at once instead of one. (The encoder uses hmac16 the other way
// round: one document's key in every lane, 16 of its trapdoor elements
// per call; see Bloom.encrypt.) Each step
//
//  1. evaluates every lane's next trapdoor element under that lane's
//     record key schedule in one hmac16 call (digest words 0-1 only);
//  2. computes every lane's bit position and loads every lane's filter
//     byte, in one pass, before any bit is tested;
//  3. advances every lane by its bit: to the next element, the next
//     predicate, or a verdict, after which the lane takes the batch's
//     next record.
//
// A 16-lane call costs a third of one SHA-NI evaluation per lane. The
// filter and key schedule of a record are prefetched laneAhead records
// before it enters a lane, so the loads of steps 2 and 3 find them in
// cache instead of stalling behind the branch on the last bit. Hosts
// without AVX-512F run the per-record loop unchanged: feeding the lanes
// through SHA-NI one at a time measured slower than that loop.
//
// A pass (lanePass) takes a window of records through the lanes in one
// order of predicates and leaves a bitmap of the matches. A settled Run
// (or one with a single predicate) makes one pass per window in its
// settled order. A Run that is still sampling makes one pass per
// predicate over the records that complete its quota, each in that
// predicate alone: the bitmaps count toward the selectivities and
// combine by AND or OR into the verdicts, and the Run settles exactly at
// SelectivitySamples records, as the per-record loop would.
//
// The lane path gives exactly the per-record loop's answer, ids in
// record order, with the same Sampled and Order after every call;
// FuzzLanesMatchPerRecord compares the two. Each lane steps through its
// order with the same rules as orderedMatch and evalPred: an empty
// predicate holds, AND stops at the first predicate that fails, OR at
// the first that holds, and the bit position is the digest's leading 8
// bytes mod MBits. A record whose filter is shorter than MBits never
// enters a lane, matches nothing and is not a sample.

const (
	// laneMin: once no record is left to enter, fewer live lanes than
	// this finish on the per-record kernel, where a 16-lane call would
	// cost more than their SHA-NI evaluations.
	laneMin = 6
	// laneWindow is the most records one lane pass takes: the size of
	// a hit bitmap.
	laneWindow = 64 * 64
	// laneAhead is how many records ahead of the next to enter a lane
	// the lane path prefetches filters and key schedules: about two
	// steps of entries, so that each arrives before it is read.
	laneAhead = 16
)

// lanes is a Run's lane path state. It lives in the Run, not on the
// matcher goroutine's stack, and hmac16 takes pointers into it.
type lanes struct {
	// msg is every trapdoor element, as big-endian words, predicate
	// after predicate; first is the Run's: predicate p's elements are
	// msg[first[p]:first[p+1]].
	msg   [][8]uint32
	first []int32

	// preds[p] is p: preds[p:p+1] is the one-predicate order a sampling
	// pass evaluates predicate p in, and the whole of a one-predicate
	// Run's order, as it never samples.
	preds []int

	// hmac16's operands: the lanes' KeySchedules transposed (kt[w][i]
	// is word w of lane i's), the element (index into msg) each lane
	// evaluates next, and the digests' words 0 and 1. A dead lane has
	// el = 0.
	kt [16][16]uint32
	el [16]int32
	h  [2][16]uint32

	// Per lane: the record (index into the window), the current
	// predicate's place in the order and its end in msg, and the
	// record's filter.
	rec    [16]int32
	pos    [16]int32
	end    [16]int32
	filter [16][]byte

	live uint32                  // bit i: lane i holds a record
	hits [laneWindow / 64]uint64 // bit i: record i of the window matched
}

// newLanes returns the lane state for q, whose elements the Run indexes
// by first, with preds (len(q.Preds) ints) as its storage; or nil if the
// lane path cannot run it: no AVX-512F, no predicate, or an element
// hmac16 cannot take.
func newLanes(q Query, first []int32, preds []int) *lanes {
	if !useLanes || len(q.Preds) == 0 {
		return nil
	}
	l := &lanes{msg: make([][8]uint32, 0, first[len(q.Preds)]), first: first, preds: preds}
	for i, p := range q.Preds {
		l.preds[i] = i
		for _, x := range p.Trapdoor {
			if len(x) != 32 {
				return nil
			}
			var w [8]uint32
			for i := range w {
				w[i] = binary.BigEndian.Uint32(x[4*i:])
			}
			l.msg = append(l.msg, w)
		}
	}
	return l
}

// lanesReady reports whether the lane path takes the Run's records:
// there are lanes, and key schedules to feed them.
func (r *Run) lanesReady() bool {
	return r.lanes != nil && r.prf.path != pathGeneric
}

// matchLanes is MatchScheduled's lane path. A nil ks derives each
// record's schedule as it enters a lane.
func (r *Run) matchLanes(recs []Encoded, ks []KeySchedule, out []uint64) []uint64 {
	for len(recs) > 0 {
		n := min(len(recs), laneWindow)
		sampling := r.order == nil && len(r.q.Preds) > 1
		samples := 0
		if sampling {
			n, samples = r.sampleSpan(recs[:n])
		}
		var wks []KeySchedule
		if ks != nil {
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
// Without ks, every pass derives a record's schedule anew.
func (r *Run) sampleLanes(recs []Encoded, ks []KeySchedule, samples int, out []uint64) []uint64 {
	l := r.lanes
	and := r.q.Op == And
	var verdicts [laneWindow / 64]uint64
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

// lanePass takes recs (at most laneWindow of them) through the lanes in
// order, AND or OR, and leaves the matches in l.hits.
func (r *Run) lanePass(recs []Encoded, ks []KeySchedule, order []int, and bool) {
	l := r.lanes
	mBits := uint64(r.m.mBits)

	ahead := func(rec int) {
		if rec < len(recs) {
			var k *KeySchedule
			if ks != nil {
				k = &ks[rec]
			}
			prefetch(recs[rec].Filter, k)
		}
	}
	for rec := range laneAhead {
		ahead(rec)
	}
	next := 0 // the next record to enter a lane
	fill := func(i int) {
		for next < len(recs) {
			rec := next
			next++
			ahead(rec + laneAhead)
			if len(recs[rec].Filter)*8 < r.m.mBits {
				continue
			}
			if done, match := l.seek(i, 0, order, and); done {
				if match {
					l.hit(rec)
				}
				continue
			}
			if ks != nil {
				l.setKey(i, &ks[rec])
			} else {
				s := r.prf.derive(recs[rec].Nonce)
				l.setKey(i, &s)
			}
			l.rec[i], l.filter[i] = int32(rec), recs[rec].Filter
			l.live |= 1 << i
			return
		}
		l.el[i], l.filter[i] = 0, nil
		l.live &^= 1 << i
	}
	for i := range l.el {
		fill(i)
	}
	for next < len(recs) || bits.OnesCount32(l.live) >= laneMin {
		for _, e := range l.el { // hmac16 gathers msg[e] unchecked
			if uint(e) >= uint(len(l.msg)) {
				panic("pps: lane element index out of range")
			}
		}
		hmac16(&l.kt, &l.msg[0], &l.el, &l.h)
		var set uint32 // bit i: lane i's bit is set in its filter
		for m := l.live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			pos := (uint64(l.h[0][i])<<32 | uint64(l.h[1][i])) % mBits
			set |= uint32(l.filter[i][pos/8]>>(pos%8)&1) << i
		}
		for m := l.live; m != 0; m &= m - 1 {
			i := bits.TrailingZeros32(m)
			if done, match := l.advance(i, set>>i&1 == 1, order, and); done {
				if match {
					l.hit(int(l.rec[i]))
				}
				fill(i)
			}
		}
	}

	// The tail: finish the remaining lanes one by one.
	for m := l.live; m != 0; m &= m - 1 {
		i := bits.TrailingZeros32(m)
		var s KeySchedule
		for w := range s {
			s[w] = l.kt[w][i]
		}
		r.prf.install(&s)
		for {
			pos := r.prf.sum64(r.padded[l.el[i]]) % mBits
			done, match := l.advance(i, getBit(l.filter[i], int(pos)), order, and)
			if done {
				if match {
					l.hit(int(l.rec[i]))
				}
				break
			}
		}
		l.el[i], l.filter[i] = 0, nil
	}
	l.live = 0
}

// hit records that record rec of the pass matched.
func (l *lanes) hit(rec int) { l.hits[rec/64] |= 1 << (rec % 64) }

// setKey installs s as lane i's key, unrolled: a record enters a lane
// every few evaluations.
func (l *lanes) setKey(i int, s *KeySchedule) {
	i &= 15
	l.kt[0][i], l.kt[1][i], l.kt[2][i], l.kt[3][i] = s[0], s[1], s[2], s[3]
	l.kt[4][i], l.kt[5][i], l.kt[6][i], l.kt[7][i] = s[4], s[5], s[6], s[7]
	l.kt[8][i], l.kt[9][i], l.kt[10][i], l.kt[11][i] = s[8], s[9], s[10], s[11]
	l.kt[12][i], l.kt[13][i], l.kt[14][i], l.kt[15][i] = s[12], s[13], s[14], s[15]
}

// seek moves lane i to the first predicate at or after place pos in
// order that has elements to evaluate. An empty predicate holds, so it
// decides an OR and is passed over by an AND. done reports a verdict
// instead: AND with every predicate held, OR with none.
func (l *lanes) seek(i, pos int, order []int, and bool) (done, match bool) {
	for ; pos < len(order); pos++ {
		p := order[pos]
		if l.first[p] < l.first[p+1] {
			l.pos[i], l.el[i], l.end[i] = int32(pos), l.first[p], l.first[p+1]
			return false, false
		}
		if !and {
			return true, true
		}
	}
	return true, and
}

// advance moves lane i past its current element, whose bit was set or
// not; done and match as for seek.
func (l *lanes) advance(i int, set bool, order []int, and bool) (done, match bool) {
	if set {
		if l.el[i]++; l.el[i] < l.end[i] {
			return false, false
		}
		if !and { // the predicate holds: OR is decided
			return true, true
		}
	} else if and { // the predicate fails: AND is decided
		return true, false
	}
	return l.seek(i, int(l.pos[i])+1, order, and)
}
