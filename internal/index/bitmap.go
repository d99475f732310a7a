// Package index implements the plaintext inverted-index data plane: term
// posting lists stored as roaring bitmaps, grouped into immutable
// segments with a SaveFile-style length-prefixed disk layout, loaded
// through a memory-budgeted LRU cache so a node can serve indexes far
// larger than RAM. It is the second matcher behind internal/node's
// pluggable Matcher interface — the same ring/hedging/autoscale
// machinery that serves PPS encrypted scans serves these indexes
// unchanged, but a sub-query here costs a few container intersections
// instead of an HMAC per stored record.
package index

import (
	"math/bits"
	"slices"
)

// Roaring layout: a Bitmap holds uint64 values chunked by their high 48
// bits. Each chunk ("container") stores the low 16 bits either as a
// sorted uint16 array (sparse, ≤ arrayMaxCard values) or as a 65536-bit
// word array (dense). Posting lists are built over dense per-segment
// doc ordinals (see segment.go), which is what makes the dense
// containers actually occur; the Bitmap itself accepts arbitrary uint64
// values, so record-id bitmaps work too — they just stay in array form.

const (
	// arrayMaxCard is the array→bitmap promotion threshold: past 4096
	// values the 8KB word array is smaller than 2 bytes per value.
	arrayMaxCard = 4096
	// containerWords is the dense form's word count (65536 bits).
	containerWords = 1 << 16 / 64
)

// container holds one 2^16-value chunk. Exactly one of array/words is
// non-nil; card tracks the value count in both forms.
type container struct {
	array []uint16 // sorted unique, when words == nil
	words []uint64 // len containerWords, when dense
	card  int
}

func (c *container) memBytes() int {
	if c.words != nil {
		return containerWords * 8
	}
	return 2 * len(c.array)
}

func (c *container) contains(low uint16) bool {
	if c.words != nil {
		return c.words[low>>6]&(1<<(low&63)) != 0
	}
	_, ok := slices.BinarySearch(c.array, low)
	return ok
}

func (c *container) add(low uint16) {
	if c.words != nil {
		w, b := low>>6, uint64(1)<<(low&63)
		if c.words[w]&b == 0 {
			c.words[w] |= b
			c.card++
		}
		return
	}
	i, ok := slices.BinarySearch(c.array, low)
	if ok {
		return
	}
	c.array = append(c.array, 0)
	copy(c.array[i+1:], c.array[i:])
	c.array[i] = low
	c.card++
	if c.card > arrayMaxCard {
		c.toWords()
	}
}

func (c *container) toWords() {
	words := make([]uint64, containerWords)
	for _, v := range c.array {
		words[v>>6] |= 1 << (v & 63)
	}
	c.words, c.array = words, nil
}

// iterate calls fn for each value in ascending order; fn returning false
// stops early. Returns false when stopped.
func (c *container) iterate(fn func(low uint16) bool) bool {
	if c.words != nil {
		for w, word := range c.words {
			for word != 0 {
				if !fn(uint16(w<<6 + bits.TrailingZeros64(word))) {
					return false
				}
				word &= word - 1
			}
		}
		return true
	}
	for _, v := range c.array {
		if !fn(v) {
			return false
		}
	}
	return true
}

// Bitmap is a compressed set of uint64 values. The zero value is not
// usable; construct with NewBitmap or the package operations. Bitmaps
// returned by Segment/Cache lookups are shared and must be treated as
// immutable.
type Bitmap struct {
	keys []uint64 // value >> 16, strictly increasing
	cs   []*container
	card int
}

// NewBitmap returns an empty bitmap.
func NewBitmap() *Bitmap { return &Bitmap{} }

// Cardinality returns the number of values in the set.
func (b *Bitmap) Cardinality() int { return b.card }

// MemBytes estimates the bitmap's in-memory footprint, the unit the
// segment cache budgets.
func (b *Bitmap) MemBytes() int {
	n := 64 + 8*len(b.keys) // struct + key slice + container headers
	for _, c := range b.cs {
		n += 48 + c.memBytes()
	}
	return n
}

func (b *Bitmap) keyIndex(key uint64) (int, bool) {
	return slices.BinarySearch(b.keys, key)
}

// Add inserts a value.
func (b *Bitmap) Add(v uint64) {
	key := v >> 16
	i, ok := b.keyIndex(key)
	if !ok {
		b.keys = append(b.keys, 0)
		b.cs = append(b.cs, nil)
		copy(b.keys[i+1:], b.keys[i:])
		copy(b.cs[i+1:], b.cs[i:])
		b.keys[i] = key
		b.cs[i] = &container{}
	}
	c := b.cs[i]
	before := c.card
	c.add(uint16(v))
	b.card += c.card - before
}

// Contains reports membership.
func (b *Bitmap) Contains(v uint64) bool {
	i, ok := b.keyIndex(v >> 16)
	return ok && b.cs[i].contains(uint16(v))
}

// Iterate calls fn for each value in ascending order until fn returns
// false.
func (b *Bitmap) Iterate(fn func(v uint64) bool) {
	for i, key := range b.keys {
		base := key << 16
		if !b.cs[i].iterate(func(low uint16) bool { return fn(base | uint64(low)) }) {
			return
		}
	}
}
