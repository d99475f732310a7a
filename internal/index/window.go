package index

import (
	"context"
	"math/bits"
	"slices"
	"sync"
)

// The one posting evaluator. A query is "ordinals held by at least need
// of these postings", restricted to ordinal windows and cut to a limit;
// AND is need = len(postings), OR is need = 1, and the full-ring query
// is the window [0, Docs). Work is proportional to the windows, not the
// corpus: only containers whose key range overlaps a window are touched,
// boundary containers are clipped, matches stream straight into the
// output slice, and evaluation stops at the limit. Nothing on the way
// builds an intermediate container or Bitmap. docs/INDEX.md has the
// cost model.

// span is an inclusive window [lo, hi] of one container's 16-bit values.
type span struct{ lo, hi uint16 }

// clip returns the values of a sorted array container inside the span.
func (s span) clip(a []uint16) []uint16 {
	if s.hi < 1<<16-1 {
		end, _ := slices.BinarySearch(a, s.hi+1)
		a = a[:end]
	}
	start, _ := slices.BinarySearch(a, s.lo)
	return a[start:]
}

// word returns words[w] with the bits outside the span cleared.
func (s span) word(words []uint64, w int) uint64 {
	x := words[w]
	if w == int(s.lo>>6) {
		x &= ^uint64(0) << (s.lo & 63)
	}
	if w == int(s.hi>>6) {
		x &= ^uint64(0) >> (63 - s.hi&63)
	}
	return x
}

// seek16 returns the first index i >= from with a[i] >= v. Probes come
// in ascending order, so the answer is usually a few entries past the
// cursor: the next eight are counted without a branch on any of them
// (between arrays within ~8x of each other's size that finds it, where a
// compare-and-step loop would mispredict once per probe), and only a
// farther target gallops.
func seek16(a []uint16, from int, v uint16) int {
	if from+8 <= len(a) {
		w := a[from : from+8 : from+8]
		n := less(w[0], v) + less(w[1], v) + less(w[2], v) + less(w[3], v) +
			less(w[4], v) + less(w[5], v) + less(w[6], v) + less(w[7], v)
		if n < 8 {
			return from + n
		}
		from += 8
	}
	lo, step := from, 1
	for lo < len(a) && a[lo] < v {
		from = lo + 1
		lo += step
		step <<= 1
	}
	i, _ := slices.BinarySearch(a[from:min(lo, len(a))], v)
	return from + i
}

// less is 1 when x < v and 0 otherwise, computed without a branch.
func less(x, v uint16) int { return int(uint32(int32(x)-int32(v)) >> 31) }

// scratch is the combine buffer of the OR and tally kernels. It is
// pooled, not a local array: 8 KiB of words (let alone 128 KiB of
// counts) on the stack of a fresh per-request goroutine forces a stack
// grow and copy on every leg.
type scratch struct {
	words  [containerWords]uint64
	counts []uint16 // 1<<16 tallies, allocated by the first tally
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

type evaluator struct {
	ctx     context.Context
	posts   []*Bitmap    // the non-empty postings, rarest first
	cur     []int        // posts[i]'s container cursor in the current window
	pos     []int        // cs[j]'s array cursor in the current container
	cs      []*container // the containers sharing the current key
	need    int
	limit   int // <= 0: unlimited
	out     []uint64
	scanned int
	buf     *scratch
}

// searchWindows returns, ascending within each window and windows in
// the given order, the ordinals inside the half-open windows that at
// least need of the postings hold, stopping after limit of them
// (limit <= 0: all), and the number of posting entries it examined:
// every entry visited in a driving or combined posting counts one, and
// so does every probe of another posting. ctx is checked once per
// container. The postings slice is reordered in place.
func searchWindows(ctx context.Context, postings []*Bitmap, need int, windows [][2]int, limit int) ([]uint64, int, error) {
	e := evaluator{ctx: ctx, need: max(need, 1), limit: limit, posts: postings[:0]}
	bound := 0
	for _, bm := range postings {
		if bm.card == 0 {
			continue
		}
		i := len(e.posts)
		e.posts = append(e.posts, bm)
		for ; i > 0 && e.posts[i-1].card > bm.card; i-- {
			e.posts[i], e.posts[i-1] = e.posts[i-1], e.posts[i]
		}
		bound += bm.card
	}
	if len(e.posts) < e.need {
		return nil, 0, nil
	}
	if len(e.posts) == e.need {
		bound = e.posts[0].card
	}
	if limit > 0 {
		e.out = make([]uint64, 0, min(limit, bound))
	}
	idx := make([]int, 2*len(e.posts))
	e.cur, e.pos = idx[:len(e.posts)], idx[len(e.posts):]
	e.cs = make([]*container, 0, len(e.posts))
	var err error
	for _, w := range windows {
		if w[0] >= w[1] || e.full() {
			continue
		}
		if err = e.window(uint64(w[0]), uint64(w[1]-1)); err != nil {
			e.out = nil
			break
		}
	}
	if e.buf != nil {
		scratchPool.Put(e.buf)
	}
	return e.out, e.scanned, err
}

// scratch returns the evaluation's pooled combine buffer.
func (e *evaluator) scratch() *scratch {
	if e.buf == nil {
		e.buf = scratchPool.Get().(*scratch)
	}
	return e.buf
}

func (e *evaluator) full() bool { return e.limit > 0 && len(e.out) >= e.limit }

// emit appends one match and reports whether the limit is reached.
func (e *evaluator) emit(v uint64) bool {
	e.out = append(e.out, v)
	return e.full()
}

// emitWord emits the set bits of x as base+bit.
func (e *evaluator) emitWord(x, base uint64) bool {
	for ; x != 0; x &= x - 1 {
		if e.emit(base | uint64(bits.TrailingZeros64(x))) {
			return true
		}
	}
	return false
}

// window evaluates the inclusive ordinal window [first, last], walking
// the postings' containers in key order with one monotone cursor each.
func (e *evaluator) window(first, last uint64) error {
	kLo, kHi := first>>16, last>>16
	for i, bm := range e.posts {
		e.cur[i], _ = bm.keyIndex(kLo)
	}
	for !e.full() {
		key, alive := ^uint64(0), 0
		for i, bm := range e.posts {
			if c := e.cur[i]; c < len(bm.keys) && bm.keys[c] <= kHi {
				alive++
				key = min(key, bm.keys[c])
			}
		}
		if alive < e.need {
			return nil
		}
		if err := e.ctx.Err(); err != nil {
			return err
		}
		e.cs = e.cs[:0]
		for i, bm := range e.posts {
			if c := e.cur[i]; c < len(bm.keys) && bm.keys[c] == key {
				e.cs = append(e.cs, bm.cs[c])
				e.cur[i]++
			}
		}
		s := span{0, 1<<16 - 1}
		if key == kLo {
			s.lo = uint16(first)
		}
		if key == kHi {
			s.hi = uint16(last)
		}
		switch {
		case len(e.cs) < e.need:
		case len(e.cs) == e.need:
			e.and(s, key<<16)
		case e.need == 1:
			e.or(s, key<<16)
		default:
			e.tally(s, key<<16)
		}
	}
	return nil
}

// and emits the span's values held by every container in e.cs. The
// smallest container drives; the others are probed smallest first, so a
// miss is found with the fewest probes.
func (e *evaluator) and(s span, base uint64) {
	cs := e.cs
	for i := 1; i < len(cs); i++ {
		for j := i; j > 0 && cs[j-1].card > cs[j].card; j-- {
			cs[j], cs[j-1] = cs[j-1], cs[j]
		}
	}
	if cs[0].words != nil {
		// The smallest is dense, so all are: AND word by word.
		for w := int(s.lo >> 6); w <= int(s.hi>>6); w++ {
			d := s.word(cs[0].words, w)
			x := d
			for _, c := range cs[1:] {
				x &= c.words[w]
			}
			e.scanned += bits.OnesCount64(d) * len(cs)
			if e.emitWord(x, base|uint64(w)<<6) {
				return
			}
		}
		return
	}
	pos := e.pos[:len(cs)]
	clear(pos)
	for _, v := range s.clip(cs[0].array) {
		e.scanned++
		hit := true
		for j := 1; j < len(cs) && hit; j++ {
			e.scanned++
			if c := cs[j]; c.words != nil {
				hit = c.words[v>>6]>>(v&63)&1 != 0
			} else {
				pos[j] = seek16(c.array, pos[j], v)
				hit = pos[j] < len(c.array) && c.array[pos[j]] == v
			}
		}
		if hit && e.emit(base|uint64(v)) {
			return
		}
	}
}

// or emits the span's values held by any container in e.cs (two or
// more: a lone container goes through and).
func (e *evaluator) or(s span, base uint64) {
	wlo := int(s.lo >> 6)
	acc := e.scratch().words[wlo : int(s.hi>>6)+1]
	clear(acc)
	for _, c := range e.cs {
		if c.words != nil {
			for i := range acc {
				x := s.word(c.words, wlo+i)
				e.scanned += bits.OnesCount64(x)
				acc[i] |= x
			}
			continue
		}
		a := s.clip(c.array)
		e.scanned += len(a)
		for _, v := range a {
			acc[int(v>>6)-wlo] |= 1 << (v & 63)
		}
	}
	for i, x := range acc {
		if e.emitWord(x, base|uint64(wlo+i)<<6) {
			return
		}
	}
}

// tally emits the span's values held by at least e.need of the
// containers in e.cs, counting into a span-sized slice of the pooled
// tallies.
func (e *evaluator) tally(s span, base uint64) {
	buf := e.scratch()
	if buf.counts == nil {
		buf.counts = make([]uint16, 1<<16)
	}
	counts := buf.counts[s.lo : int(s.hi)+1]
	clear(counts)
	for _, c := range e.cs {
		if c.words != nil {
			for w := int(s.lo >> 6); w <= int(s.hi>>6); w++ {
				x := s.word(c.words, w)
				e.scanned += bits.OnesCount64(x)
				for ; x != 0; x &= x - 1 {
					counts[w<<6+bits.TrailingZeros64(x)-int(s.lo)]++
				}
			}
			continue
		}
		a := s.clip(c.array)
		e.scanned += len(a)
		for _, v := range a {
			counts[v-s.lo]++
		}
	}
	for i, n := range counts {
		if int(n) >= e.need && e.emit(base|uint64(int(s.lo)+i)) {
			return
		}
	}
}
