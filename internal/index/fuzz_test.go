package index

import (
	"math/rand"
	"testing"
)

// FuzzDecodeSegment: the segment decoder faces bytes from disk, so
// truncated/corrupt images must error or decode, never panic or
// over-allocate; a valid decode must survive re-encode → re-decode.
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
		if back.Docs() != s.Docs() || len(back.Terms()) != len(s.Terms()) {
			t.Fatalf("round-trip drift: %d/%d docs, %d/%d terms",
				back.Docs(), s.Docs(), len(back.Terms()), len(s.Terms()))
		}
	})
}
