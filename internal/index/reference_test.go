package index

import (
	"math/bits"
	"sort"
)

// The set-at-a-time evaluation the index plane used before the windowed
// evaluator (window.go): combine the whole-corpus postings into a new
// Bitmap, then clip it to a window with AppendRange. It lives in a test
// file as the reference the differential tests and FuzzSearchWindow
// compare searchWindows against; bitmap_test.go checks it against plain
// maps.

// refSearch answers what searchWindows answers, the old way.
func refSearch(postings []*Bitmap, need int, windows [][2]int, limit int) []uint64 {
	var set *Bitmap
	switch {
	case need == len(postings):
		set = AndAll(postings)
	case need <= 1:
		set = OrAll(postings)
	default:
		set = Threshold(postings, need)
	}
	var ords []uint64
	for _, w := range windows {
		if w[0] >= w[1] || (limit > 0 && len(ords) >= limit) {
			continue
		}
		ords = set.AppendRange(uint64(w[0]), uint64(w[1]-1), limit, ords)
	}
	return ords
}

// toArray demotes a sparse dense-form container back to array form
// (set operations produce canonical containers: array iff ≤ 4096).
func (c *container) toArray() {
	arr := make([]uint16, 0, c.card)
	for w, word := range c.words {
		for word != 0 {
			arr = append(arr, uint16(w<<6+bits.TrailingZeros64(word)))
			word &= word - 1
		}
	}
	c.array, c.words = arr, nil
}

func (c *container) canonicalize() {
	if c.words != nil && c.card <= arrayMaxCard {
		c.toArray()
	}
}

func andContainer(a, b *container) *container {
	switch {
	case a.words != nil && b.words != nil:
		words := make([]uint64, containerWords)
		card := 0
		for i := range words {
			words[i] = a.words[i] & b.words[i]
			card += bits.OnesCount64(words[i])
		}
		if card == 0 {
			return nil
		}
		out := &container{words: words, card: card}
		out.canonicalize()
		return out
	case a.words == nil && b.words == nil:
		small, large := a, b
		if len(small.array) > len(large.array) {
			small, large = large, small
		}
		var arr []uint16
		for _, v := range small.array {
			if large.contains(v) {
				arr = append(arr, v)
			}
		}
		if len(arr) == 0 {
			return nil
		}
		return &container{array: arr, card: len(arr)}
	default:
		arrC, wordC := a, b
		if arrC.words != nil {
			arrC, wordC = b, a
		}
		var arr []uint16
		for _, v := range arrC.array {
			if wordC.contains(v) {
				arr = append(arr, v)
			}
		}
		if len(arr) == 0 {
			return nil
		}
		return &container{array: arr, card: len(arr)}
	}
}

func orContainer(a, b *container) *container {
	if a.words != nil || b.words != nil || a.card+b.card > arrayMaxCard {
		words := make([]uint64, containerWords)
		fill := func(c *container) {
			if c.words != nil {
				for i, w := range c.words {
					words[i] |= w
				}
				return
			}
			for _, v := range c.array {
				words[v>>6] |= 1 << (v & 63)
			}
		}
		fill(a)
		fill(b)
		card := 0
		for _, w := range words {
			card += bits.OnesCount64(w)
		}
		out := &container{words: words, card: card}
		out.canonicalize()
		return out
	}
	arr := make([]uint16, 0, a.card+b.card)
	i, j := 0, 0
	for i < len(a.array) && j < len(b.array) {
		switch {
		case a.array[i] < b.array[j]:
			arr = append(arr, a.array[i])
			i++
		case a.array[i] > b.array[j]:
			arr = append(arr, b.array[j])
			j++
		default:
			arr = append(arr, a.array[i])
			i, j = i+1, j+1
		}
	}
	arr = append(arr, a.array[i:]...)
	arr = append(arr, b.array[j:]...)
	return &container{array: arr, card: len(arr)}
}

// AppendRange appends the values in the inclusive range [from, to] to
// out, in ascending order, stopping once limit values have been
// appended in total (limit <= 0 means unlimited). It returns the
// extended slice.
func (b *Bitmap) AppendRange(from, to uint64, limit int, out []uint64) []uint64 {
	if from > to {
		return out
	}
	loKey, hiKey := from>>16, to>>16
	start := sort.Search(len(b.keys), func(i int) bool { return b.keys[i] >= loKey })
	for i := start; i < len(b.keys) && b.keys[i] <= hiKey; i++ {
		base := b.keys[i] << 16
		boundary := b.keys[i] == loKey || b.keys[i] == hiKey
		if !b.cs[i].iterate(func(low uint16) bool {
			v := base | uint64(low)
			if boundary && (v < from || v > to) {
				return v <= to // past `to` inside the last container: stop
			}
			out = append(out, v)
			return limit <= 0 || len(out) < limit
		}) {
			if limit > 0 && len(out) >= limit {
				return out
			}
		}
	}
	return out
}

// And intersects two bitmaps.
func And(a, b *Bitmap) *Bitmap {
	out := NewBitmap()
	i, j := 0, 0
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			i++
		case a.keys[i] > b.keys[j]:
			j++
		default:
			if c := andContainer(a.cs[i], b.cs[j]); c != nil {
				out.keys = append(out.keys, a.keys[i])
				out.cs = append(out.cs, c)
				out.card += c.card
			}
			i, j = i+1, j+1
		}
	}
	return out
}

// Or unions two bitmaps.
func Or(a, b *Bitmap) *Bitmap {
	out := NewBitmap()
	i, j := 0, 0
	push := func(key uint64, c *container) {
		out.keys = append(out.keys, key)
		out.cs = append(out.cs, c)
		out.card += c.card
	}
	for i < len(a.keys) && j < len(b.keys) {
		switch {
		case a.keys[i] < b.keys[j]:
			push(a.keys[i], a.cs[i])
			i++
		case a.keys[i] > b.keys[j]:
			push(b.keys[j], b.cs[j])
			j++
		default:
			push(a.keys[i], orContainer(a.cs[i], b.cs[j]))
			i, j = i+1, j+1
		}
	}
	for ; i < len(a.keys); i++ {
		push(a.keys[i], a.cs[i])
	}
	for ; j < len(b.keys); j++ {
		push(b.keys[j], b.cs[j])
	}
	return out
}

// AndAll intersects the given bitmaps smallest-cardinality-first,
// terminating early the moment the running intersection goes empty.
func AndAll(bms []*Bitmap) *Bitmap {
	if len(bms) == 0 {
		return NewBitmap()
	}
	sorted := append([]*Bitmap(nil), bms...)
	sort.SliceStable(sorted, func(a, b int) bool { return sorted[a].card < sorted[b].card })
	acc := sorted[0]
	if acc.card == 0 {
		return NewBitmap()
	}
	for _, bm := range sorted[1:] {
		acc = And(acc, bm)
		if acc.card == 0 {
			break
		}
	}
	return acc
}

// OrAll unions the given bitmaps.
func OrAll(bms []*Bitmap) *Bitmap {
	acc := NewBitmap()
	for _, bm := range bms {
		acc = Or(acc, bm)
	}
	return acc
}

// Threshold returns the values present in at least minMatch of the
// given bitmaps: minMatch below 1 counts as 1, above len(bms) matches
// nothing.
func Threshold(bms []*Bitmap, minMatch int) *Bitmap {
	if len(bms) == 0 {
		return NewBitmap()
	}
	if minMatch < 1 {
		minMatch = 1
	}
	if minMatch > len(bms) {
		return NewBitmap()
	}
	if minMatch == 1 {
		return OrAll(bms)
	}
	keySet := map[uint64]struct{}{}
	for _, bm := range bms {
		for _, k := range bm.keys {
			keySet[k] = struct{}{}
		}
	}
	keys := make([]uint64, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool { return keys[a] < keys[b] })

	var vals []uint64
	counts := make([]uint16, 1<<16)
	for _, key := range keys {
		clear(counts)
		present := 0
		for _, bm := range bms {
			if i, ok := bm.keyIndex(key); ok {
				present++
				bm.cs[i].iterate(func(low uint16) bool {
					counts[low]++
					return true
				})
			}
		}
		if present < minMatch {
			continue
		}
		for v := 0; v < 1<<16; v++ {
			if int(counts[v]) >= minMatch {
				vals = append(vals, key<<16|uint64(v))
			}
		}
	}
	return bitmapOf(vals)
}
