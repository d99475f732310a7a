package index

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzDecodeSegment: the segment decoder faces bytes from disk, so
// truncated/corrupt images must error or decode, never panic or
// over-allocate; a valid decode must re-encode to an image that decodes
// to the same doc ids, terms and postings, and re-encodes to itself.
func FuzzDecodeSegment(f *testing.F) {
	rng := rand.New(rand.NewSource(42))
	b := NewBuilder()
	for i := 0; i < 200; i++ {
		b.Add(rng.Uint64(), "alpha", "beta", []string{"gam", "amm", "mma"}[i%3])
	}
	seed, err := EncodeSegment(b.Build("seed"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	// A segment with a dense (words-form) container.
	dense := NewBuilder()
	for i := uint64(0); i < 5000; i++ {
		dense.Add(i*7, "hot")
	}
	dseed, err := EncodeSegment(dense.Build("dense"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dseed)
	f.Add([]byte{})
	f.Add([]byte("ROARSEG1"))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := DecodeSegment(data)
		if err != nil {
			return
		}
		blob, err := EncodeSegment(s)
		if err != nil {
			t.Fatalf("re-encode of valid segment failed: %v", err)
		}
		back, err := DecodeSegment(blob)
		if err != nil {
			t.Fatalf("re-decode of valid segment failed: %v", err)
		}
		if !reflect.DeepEqual(back.docIDs, s.docIDs) || !reflect.DeepEqual(back.terms, s.terms) {
			t.Fatalf("round-trip drift: doc ids %v -> %v, terms %q -> %q", s.docIDs, back.docIDs, s.terms, back.terms)
		}
		for _, term := range s.terms {
			if got, want := postingValues(back.mem[term]), postingValues(s.mem[term]); !reflect.DeepEqual(got, want) {
				t.Fatalf("round-trip drift in posting %q: %v -> %v", term, want, got)
			}
		}
		if again, err := EncodeSegment(back); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("re-encoding changed the bytes (err %v)", err)
		}
	})
}

// postingValues lists b's values in order.
func postingValues(b *Bitmap) []uint64 {
	var vs []uint64
	b.Iterate(func(v uint64) bool { vs = append(vs, v); return true })
	return vs
}
