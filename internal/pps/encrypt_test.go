package pps

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	mrand "math/rand"
	"strings"
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
	// Seeds whose first document holds a 55-byte word (padded into one
	// block: its trapdoor on hmac16el8) and a 56-byte one (two blocks: on
	// the kernels), at r = 17, 17 and 4.
	f.Add(int64(134), uint8(2), uint8(7), uint16(40))
	f.Add(int64(422), uint8(2), uint8(7), uint16(0))
	f.Add(int64(198), uint8(1), uint8(7), uint16(16))
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

// documentWords lists what encryptDocument adds to d's filter, in its
// order, the plain way: the open-vocabulary words as strings, built
// with fmt and strings.Split, and the numeric signatures as the
// trapdoors of their slots.
func (e *Encoder) documentWords(d Document) (words []string, sig []WordTrapdoor) {
	for rank, kw := range d.Keywords {
		words = append(words, "kw="+kw)
		for _, b := range e.rankBkts {
			if rank < b {
				words = append(words, fmt.Sprintf("top%d=%s", b, kw))
			}
		}
	}
	for _, c := range strings.Split(d.Path, "/") {
		if c != "" {
			words = append(words, "path="+c)
		}
	}
	signature := func(attr string, slots []signatureSlot, v float64, points []float64) {
		for i, p := range points {
			slot, cmp := &slots[2*i], byte('>')
			if v < p {
				slot, cmp = &slots[2*i+1], '<'
			} else if v == p {
				continue
			}
			var td WordTrapdoor
			for _, row := range slot.trapdoor(e.bloom, attr, cmp, p) {
				for _, w := range row {
					td = binary.BigEndian.AppendUint32(td, w)
				}
			}
			sig = append(sig, td)
		}
	}
	signature("size", e.sizeSig, float64(d.Size), e.sizePoints)
	signature("date", e.dateSig, d.Modified.Sub(e.epoch).Hours()/24, e.datePoints)
	return words, sig
}

// TestEncryptDocumentMatchesWords: with the nonce fixed, the filter
// encryptDocument writes is crypto/hmac's filter of documentWords, on
// every path, and it counts those words; for the golden test's slim
// document, for keywords and path components of 0 to 120 bytes (across
// the 55/56-byte one-block boundary, with empty components), and for
// documents on and off the reference points; in the slim, the default
// and a 33-hash configuration. One state encrypts every document in
// turn. A document over the word budget is rejected.
func TestEncryptDocumentMatchesWords(t *testing.T) {
	rnd := goldenNonce()
	rng := mrand.New(mrand.NewSource(67))
	docs := []Document{{ID: 1, Path: "/home/costin/papers/roar.pdf", Size: 123456, Modified: time.Date(2008, 6, 15, 0, 0, 0, 0, time.UTC), Keywords: []string{"rendezvous", "ring", "search"}}}
	for i := range 12 {
		d := Document{ID: uint64(i), Path: "//a/" + strings.Repeat("p", 10*i) + "/", Size: rng.Int63n(2e9), Modified: time.Date(2005+rng.Intn(12), 1, 1+rng.Intn(28), 0, 0, 0, 0, time.UTC)}
		for k := range rng.Intn(7) {
			d.Keywords = append(d.Keywords, strings.Repeat(string(rune('a'+k)), rng.Intn(121)))
		}
		docs = append(docs, d)
	}
	const slim = "b52495e43e66ee0deeab5ab6162dc18237fbf52442501bb69c5a836f4581c036"
	cfgs := map[string]EncoderConfig{"slim": slimConfig(), "default": {}, "r33": {Hashes: 33, SizePoints: LinearPoints(0, 1e9, 4), DateSpan: 8}}
	for cfgName, cfg := range cfgs {
		e := NewEncoder(TestKey(61), cfg)
		docs[1].Size = int64(e.sizePoints[1]) // on a reference point: neither word
		generic := e.bloom.newEncState(pathGeneric, false)
		for name, p := range scanPaths() {
			st := e.bloom.newEncState(p, name == "avx512")
			for i, d := range docs {
				md := BloomMetadata{Nonce: rnd, Filter: make([]byte, (e.bloom.mBits+7)/8)}
				n := e.encryptDocument(st, md, d)
				words, sig := e.documentWords(d)
				if n != len(words)+len(sig) {
					t.Errorf("%s/%s: document %d counted %d words, want %d", cfgName, name, i, n, len(words)+len(sig))
				}
				if want := e.bloom.encrypt(generic, rnd, words, sig); !bytes.Equal(md.Filter, want) {
					t.Fatalf("%s/%s: document %d: filter %x, want %x", cfgName, name, i, md.Filter, want)
				}
				if got := sha256.Sum256(md.Filter); cfgName == "slim" && i == 0 && hex.EncodeToString(got[:]) != slim {
					t.Errorf("%s: slim document filter hashes to %x, want %s", name, got, slim)
				}
			}
		}
	}
	e := NewEncoder(TestKey(61), EncoderConfig{MaxKeywords: 1, MaxPathDir: 1, SizePoints: []float64{}, DateSpan: 1, RankBuckets: []int{}})
	if _, err := e.EncryptDocument(Document{Keywords: strings.Fields("a b c d e f")}); err == nil || !strings.Contains(err.Error(), "budget") {
		t.Errorf("a 7-word document in a budget of twice 3: error %v, want the budget's", err)
	}
}

// TestEncryptDocumentAllocations: a slim document costs one allocation,
// its nonce and filter together, each capped where it ends.
func TestEncryptDocumentAllocations(t *testing.T) {
	e := NewEncoder(TestKey(61), slimConfig())
	doc := testDoc(1)
	rec, err := e.EncryptDocument(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Nonce) != nonceSize || cap(rec.Nonce) != nonceSize || len(rec.Filter) != cap(rec.Filter) || len(rec.Filter) != (e.bloom.mBits+7)/8 {
		t.Fatalf("nonce %d (cap %d), filter %d (cap %d), want %d, %d", len(rec.Nonce), cap(rec.Nonce), len(rec.Filter), cap(rec.Filter), nonceSize, (e.bloom.mBits+7)/8)
	}
	if raceEnabled {
		return // the race detector drops pooled states and instruments allocations
	}
	if allocs := testing.AllocsPerRun(100, func() { e.EncryptDocument(doc) }); allocs > 1 {
		t.Errorf("EncryptDocument allocates %.1f objects per slim document, want 1", allocs)
	}
}

// TestTrapdoorLanesMatchGeneric: a word's trapdoor on the lane path
// (16 sub-keys per hmac16el8 call, the rest on the kernels) is
// crypto/hmac's under each sub-key, for r = 1, 4, 16, 17 and 33 (no lane
// call, one, one and a remainder, two and a remainder) and words of 0 to
// 120 bytes (one padded block up to 55, two from 56); and a document of
// such words encrypts to the per-element and crypto/hmac filters.
func TestTrapdoorLanesMatchGeneric(t *testing.T) {
	skipWithoutLanes(t)
	rng := mrand.New(mrand.NewSource(68))
	for _, r := range []int{1, 4, 16, 17, 33} {
		s := NewBloom(TestKey(int64(r)), BloomConfig{MaxWords: 200, Hashes: r, BitsPerWord: 20})
		lanes := s.newEncState(bestPath, true)
		var words []string
		for n := 0; n <= 120; n++ {
			b := make([]byte, n)
			rng.Read(b)
			words = append(words, string(b))
			lanes.word = append(lanes.word[:0], b...)
			for i, d := range lanes.trapdoor() {
				want := prf(s.subkeys[i], b)
				for w, v := range d {
					if v != binary.BigEndian.Uint32(want[4*w:]) {
						t.Fatalf("r %d, %d-byte word, sub-key %d: %x, want %x", r, n, i, d, want)
					}
				}
			}
		}
		rnd := goldenNonce()
		got := s.encrypt(lanes, rnd, words, nil)
		if want := s.encrypt(s.newEncState(bestPath, false), rnd, words, nil); !bytes.Equal(got, want) {
			t.Fatalf("r %d: lane filter %x, per-element %x", r, got, want)
		}
		if want := s.encrypt(s.newEncState(pathGeneric, false), rnd, words, nil); !bytes.Equal(got, want) {
			t.Fatalf("r %d: lane filter %x, crypto/hmac %x", r, got, want)
		}
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
