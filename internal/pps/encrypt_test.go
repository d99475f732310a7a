package pps

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	mrand "math/rand"
	"testing"
	"time"
)

// slimConfig is a small encoding: the harness corpora's shape (r = 17,
// a few keywords and path components, 56 signature trapdoors).
func slimConfig() EncoderConfig {
	return EncoderConfig{MaxKeywords: 4, MaxPathDir: 4, SizePoints: LinearPoints(0, 1e9, 16), DateDays: 90, DateSpan: 40, RankBuckets: []int{1, 5}}
}

// goldenNonce is the fixed nonce of TestEncryptMetadataGolden: 0, 1, ..., 15.
func goldenNonce() []byte {
	rnd := make([]byte, 16)
	for i := range rnd {
		rnd[i] = byte(i)
	}
	return rnd
}

// TestEncryptMetadataGolden: a fixed key, nonce and words give the same
// filter bytes on every path this build and CPU can encrypt on (the lane
// path as "avx512"), pinned to the bytes the per-element encoder wrote
// before the lane path existed, so corpora encrypted then stay
// matchable. In a 160-bit filter, pinned whole: "tiny" is 4 elements, so
// 12 lanes are dead in the one lane call, and a fresh state's dead lanes
// hold an element that is not the document's; "small" is 20 elements
// (one full lane call and 4 live lanes of the next). "slim" is a slim
// document of 1 139 elements, pinned by its SHA-256.
func TestEncryptMetadataGolden(t *testing.T) {
	rnd := goldenNonce()
	s := NewBloom(TestKey(60), BloomConfig{MaxWords: 10, Hashes: 4, BitsPerWord: 16})
	words := []string{"kw=alpha", "path=home", "top1=beta"}
	sig := []WordTrapdoor{s.Trapdoor("size>5"), s.Trapdoor("date<90")}
	const tiny = "0100000000000000000000080000000008000008"
	const small = "0118000840800400010410488010001208040008"

	e := NewEncoder(TestKey(61), slimConfig())
	doc := Document{ID: 1, Path: "/home/costin/papers/roar.pdf", Size: 123456, Modified: time.Date(2008, 6, 15, 0, 0, 0, 0, time.UTC), Keywords: []string{"rendezvous", "ring", "search"}}
	docWords, docSig := e.documentWords(doc)
	const slim = "b52495e43e66ee0deeab5ab6162dc18237fbf52442501bb69c5a836f4581c036"

	for name, p := range scanPaths() {
		lanes := name == "avx512"
		if got := hex.EncodeToString(s.encrypt(s.newEncState(p, lanes), rnd, words[:1], nil)); got != tiny {
			t.Errorf("%s: tiny filter %s, want %s", name, got, tiny)
		}
		if got := hex.EncodeToString(s.encrypt(s.newEncState(p, lanes), rnd, words, sig)); got != small {
			t.Errorf("%s: small filter %s, want %s", name, got, small)
		}
		filter := e.bloom.encrypt(e.bloom.newEncState(p, lanes), rnd, docWords, docSig)
		if got := sha256.Sum256(filter); hex.EncodeToString(got[:]) != slim {
			t.Errorf("%s: slim document filter hashes to %x, want %s", name, got, slim)
		}
	}
}

// FuzzEncryptLanesMatchPerElement: the lane path's filter is the
// per-element loop's, and crypto/hmac's (the generic path), for any
// nonce, words (of any length, padded over one or two blocks),
// signature trapdoors (a stray tail shorter than an element included)
// and filter size; r is 1, 4 or 17. The seeds cover 0, 1, 15, 16 and 17
// elements and more. One lane state encrypts two documents in turn, so
// nothing of the first leaks into the second.
func FuzzEncryptLanesMatchPerElement(f *testing.F) {
	for _, c := range []struct {
		r, words uint8
		sig      uint16
	}{
		{0, 0, 0}, {0, 1, 0}, {0, 0, 15}, {1, 4, 0}, {1, 4, 1}, {2, 1, 0}, {1, 0, 16}, {0, 2, 15},
		{2, 3, 56}, {2, 7, 199}, {1, 5, 40},
	} {
		f.Add(int64(c.r)<<16|int64(c.words)<<8|int64(c.sig), c.r, c.words, c.sig)
	}
	f.Fuzz(func(t *testing.T, seed int64, r, nWords uint8, nSig uint16) {
		skipWithoutLanes(t)
		rng := mrand.New(mrand.NewSource(seed))
		s := NewBloom(TestKey(seed), BloomConfig{MaxWords: 1 + rng.Intn(50), Hashes: []int{1, 4, 17}[r%3], BitsPerWord: 1 + rng.Intn(30)})
		lanes := s.newEncState(bestPath, true)
		perElement, generic := s.newEncState(bestPath, false), s.newEncState(pathGeneric, false)
		for doc := range 2 {
			rnd := make([]byte, 16)
			rng.Read(rnd)
			words := make([]string, int(nWords)%8)
			for i := range words {
				b := make([]byte, rng.Intn(80))
				rng.Read(b)
				words[i] = string(b)
			}
			var sig []WordTrapdoor
			for left := int(nSig) % 200; left > 0; {
				n := min(left, 1+rng.Intn(20))
				td := make(WordTrapdoor, n*sha256.Size, n*sha256.Size+31)
				if rng.Intn(8) == 0 {
					td = td[:len(td)+1+rng.Intn(31)]
				}
				rng.Read(td)
				sig = append(sig, td)
				left -= n
			}
			got := s.encrypt(lanes, rnd, words, sig)
			want := s.encrypt(perElement, rnd, words, sig)
			if !bytes.Equal(got, want) {
				t.Fatalf("document %d (r %d, %d words, %d signature elements, %d bits): lane filter %x, per-element %x", doc, s.r, len(words), nSig%200, s.mBits, got, want)
			}
			if ref := s.encrypt(generic, rnd, words, sig); !bytes.Equal(want, ref) {
				t.Fatalf("document %d: per-element filter %x, crypto/hmac %x", doc, want, ref)
			}
		}
	})
}

// TestEncryptQueryMatchesPRF: EncryptQuery's elements are crypto/hmac's
// under each sub-key, for words whose padding fits one block or needs
// two, each a view of exactly one element (appending to one cannot
// write into the next); the keyword costs at most 3 allocations.
func TestEncryptQueryMatchesPRF(t *testing.T) {
	s := NewBloom(TestKey(62), DefaultBloomConfig())
	for _, n := range []int{0, 1, 23, 55, 56, 100, 200} {
		word := string(bytes.Repeat([]byte{'w'}, n))
		q := s.EncryptQuery(word)
		if len(q.Trapdoor) != s.r {
			t.Fatalf("%d-byte word: %d elements, want %d", n, len(q.Trapdoor), s.r)
		}
		for i, x := range q.Trapdoor {
			if want := prf(s.subkeys[i], []byte(word)); !bytes.Equal(x, want) || cap(x) != len(want) {
				t.Fatalf("%d-byte word, element %d: %x (cap %d), want %x", n, i, x, cap(x), want)
			}
		}
	}
	if raceEnabled {
		return // the race detector drops pooled states and instruments allocations
	}
	if allocs := testing.AllocsPerRun(100, func() { s.EncryptQuery("kw=alpha") }); allocs > 3 {
		t.Errorf("EncryptQuery allocates %.1f objects per keyword, want at most 3", allocs)
	}
}

// encodeOnPath points e's pooled encode states at path p, with the lane
// path if name is "avx512" (scanPaths' names). Call it before e encodes.
func encodeOnPath(e *Encoder, name string, p prfPath) {
	e.bloom.enc.New = func() any { return e.bloom.newEncState(p, name == "avx512") }
}

// TestModulusMatchesMod: the reciprocal reduction is % at the edges: 0,
// 2^64-1, multiples of m and their neighbours, for m = 1, small m, powers
// of two and their neighbours, the filter sizes in use and m up to 2^31.
func TestModulusMatchesMod(t *testing.T) {
	ms := []uint64{1, 2, 3, 7, 8, 9, 255, 1800, 3000, 1<<16 - 1, 1 << 16, 1<<16 + 1, 1<<31 - 1, 1 << 31}
	for _, m := range ms {
		mod := newModulus(int(m))
		ns := []uint64{0, 1, m - 1, m, m + 1, 1<<32 - 1, 1 << 32, 1<<63 - 1, 1 << 63, 1<<64 - 1}
		for _, k := range []uint64{2, 3, 1 << 20, (1<<64 - 1) / m} {
			ns = append(ns, k*m-1, k*m, k*m+1)
		}
		for _, n := range ns {
			if got, want := mod.reduce(n), n%m; uint64(got) != want {
				t.Fatalf("%d mod %d: %d, want %d", n, m, got, want)
			}
		}
	}
}

// FuzzModulusMatchesMod: the reciprocal reduction is % for any 64-bit
// value and any m from 1 to 2^31.
func FuzzModulusMatchesMod(f *testing.F) {
	f.Add(uint64(0), uint32(1))
	f.Add(uint64(1<<64-1), uint32(1800))
	f.Add(uint64(1<<63), uint32(1<<31-1))
	f.Fuzz(func(t *testing.T, n uint64, m uint32) {
		d := uint64(m)%(1<<31) + 1
		if got, want := newModulus(int(d)).reduce(n), n%d; uint64(got) != want {
			t.Fatalf("%d mod %d: %d, want %d", n, d, got, want)
		}
	})
}
