package pps

import (
	"crypto/sha256"
	"fmt"
	"math"
	"sync"
)

// Bloom implements Goh's secure-index keyword scheme (§5.5.2, "Bloom-
// Filter Keyword Matching"). Each document's keywords are inserted into
// a Bloom filter whose bit positions are blinded per-document with a
// random nonce; the query (trapdoor) is the tuple of keyword PRFs under
// r independent sub-keys.
//
// Parameters follow §5.5.2: for a false-positive rate of 1e-5 the
// optimal hash count is r = 17 at ~25 bits per element.
type Bloom struct {
	subkeys  [][]byte // r derived keys
	mBits    int      // filter size in bits
	r        int      // hash count
	maxWords int      // design load

	// enc pools reusable encode states: r kernels pre-keyed with the
	// sub-keys plus one blinding kernel re-keyed per document by the
	// nonce. EncryptMetadata is the write-side hot path (replica pushes
	// encrypt whole corpora); the pool keeps it allocation-free past the
	// filter itself while staying safe for concurrent encoders.
	enc sync.Pool
}

// encState is one pooled encode scratch (see Bloom.enc).
type encState struct {
	sub   []prfKernel        // keyed once by the scheme sub-keys
	blind prfKernel          // keyed per document by the nonce
	word  []byte             // the current word, padded once for all r sub-keys
	td    [prfBlockSize]byte // digestBlock: the current trapdoor element, padded
}

// BloomConfig sizes the filter.
type BloomConfig struct {
	// MaxWords is the maximum number of words stored per document; the
	// filter is sized at ~25 bits per word (fp ≈ 1e-5 with r=17).
	MaxWords int
	// Hashes is the number of hash functions (0 means the paper's 17).
	Hashes int
	// BitsPerWord is the filter budget per element (0 means 25).
	BitsPerWord int
}

// DefaultBloomConfig matches §5.5.2: 50 words, 17 hashes, 25 bits/word.
func DefaultBloomConfig() BloomConfig {
	return BloomConfig{MaxWords: 50, Hashes: 17, BitsPerWord: 25}
}

// NewBloom builds the scheme from the master key and configuration.
func NewBloom(k MasterKey, cfg BloomConfig) *Bloom {
	if cfg.MaxWords <= 0 {
		cfg.MaxWords = 50
	}
	if cfg.Hashes <= 0 {
		cfg.Hashes = 17
	}
	if cfg.BitsPerWord <= 0 {
		cfg.BitsPerWord = 25
	}
	sub := make([][]byte, cfg.Hashes)
	for i := range sub {
		sub[i] = k.Derive(fmt.Sprintf("bloom-%d", i))
	}
	s := &Bloom{subkeys: sub, mBits: cfg.MaxWords * cfg.BitsPerWord, r: cfg.Hashes, maxWords: cfg.MaxWords}
	s.enc.New = func() interface{} {
		st := &encState{sub: make([]prfKernel, len(s.subkeys)), td: digestBlock()}
		for i := range st.sub {
			st.sub[i].init()
			st.sub[i].setKey(s.subkeys[i])
		}
		st.blind.init()
		return st
	}
	return s
}

// MBits returns the filter size in bits (for overhead accounting).
func (s *Bloom) MBits() int { return s.mBits }

// Hashes returns the hash-function count r.
func (s *Bloom) Hashes() int { return s.r }

// BloomQuery is a keyword trapdoor: the r PRF values of the keyword.
type BloomQuery struct {
	Trapdoor [][]byte
}

// BloomMetadata is a blinded per-document filter plus its nonce.
type BloomMetadata struct {
	Nonce  []byte
	Filter []byte // mBits/8 bytes
}

// Bytes returns the wire size of the metadata, used by the bandwidth
// model of Fig 5.1.
func (m BloomMetadata) Bytes() int { return len(m.Nonce) + len(m.Filter) }

// EncryptQuery produces the trapdoor for one keyword.
func (s *Bloom) EncryptQuery(word string) BloomQuery {
	td := make([][]byte, s.r)
	for i, k := range s.subkeys {
		td[i] = prf(k, []byte(word))
	}
	return BloomQuery{Trapdoor: td}
}

// WordTrapdoor is a word's r sub-key PRF values, concatenated: the
// nonce-independent half of inserting the word into a filter. A caller
// whose vocabulary is closed computes it once per word (Trapdoor) and
// hands it to EncryptMetadata in place of the word.
type WordTrapdoor []byte

// Trapdoor computes the trapdoor of one word.
func (s *Bloom) Trapdoor(word string) WordTrapdoor {
	td := make(WordTrapdoor, 0, s.r*sha256.Size)
	st := s.enc.Get().(*encState)
	st.word = appendPadded(st.word[:0], word)
	for i := range st.sub {
		td = append(td, st.sub[i].sum(paddedMsg{st.word, len(word)})...)
	}
	s.enc.Put(st)
	return td
}

// EncryptMetadata builds the blinded filter for a document's words,
// given as strings or as precomputed trapdoors. Up to twice the design
// load MaxWords is accepted, at the false-positive rate
// FalsePositiveRate gives for that many words; more is rejected rather
// than silently degrading the rate further.
func (s *Bloom) EncryptMetadata(words []string, trapdoors ...WordTrapdoor) (BloomMetadata, error) {
	if n := len(words) + len(trapdoors); n > 2*s.maxWords {
		return BloomMetadata{}, fmt.Errorf("pps: %d words exceed filter budget (%d)", n, 2*s.maxWords)
	}
	rnd, err := nonce()
	if err != nil {
		return BloomMetadata{}, err
	}
	return s.encryptMetadata(rnd, words, trapdoors), nil
}

// encryptMetadata is EncryptMetadata under a given nonce.
func (s *Bloom) encryptMetadata(rnd []byte, words []string, trapdoors []WordTrapdoor) BloomMetadata {
	filter := make([]byte, (s.mBits+7)/8)
	st := s.enc.Get().(*encState)
	st.blind.setKey(rnd)
	mBits := uint64(s.mBits)
	x := paddedMsg{st.td[:], sha256.Size}
	for _, w := range words {
		st.word = appendPadded(st.word[:0], w)
		word := paddedMsg{st.word, len(w)}
		for i := range st.sub {
			copy(st.td[:], st.sub[i].sum(word))
			setBit(filter, int(st.blind.sum64(x)%mBits))
		}
	}
	for _, td := range trapdoors {
		for ; len(td) >= sha256.Size; td = td[sha256.Size:] {
			copy(st.td[:], td[:sha256.Size])
			setBit(filter, int(st.blind.sum64(x)%mBits))
		}
	}
	s.enc.Put(st)
	return BloomMetadata{Nonce: rnd, Filter: filter}
}

// codeword maps a trapdoor element to a blinded bit position:
// y = PRF_nonce(x) mod m (§5.5.2's F_rnd(x_i)).
func (s *Bloom) codeword(rnd, x []byte) int {
	return int(prfUint64(rnd, x) % uint64(s.mBits))
}

// MatchBloom checks whether the keyword trapdoor hits the document
// filter. Runs on the server; needs no keys. On a non-match the first
// missing bit short-circuits the test after 1/(1 − fill) hash
// applications on average — ≈ 2 at the design load, where half the bits
// are set — the cost asymmetry the paper measures in §5.7 (matching
// documents cost r hashes, misses ~2; benchmark/README.md measures it).
func (s *Bloom) MatchBloom(q BloomQuery, m BloomMetadata) bool {
	for _, x := range q.Trapdoor {
		if !getBit(m.Filter, s.codeword(m.Nonce, x)) {
			return false
		}
	}
	return true
}

// CoverBloom reports query coverage: equality of trapdoors.
func CoverBloom(q1, q2 BloomQuery) bool {
	if len(q1.Trapdoor) != len(q2.Trapdoor) {
		return false
	}
	for i := range q1.Trapdoor {
		if string(q1.Trapdoor[i]) != string(q2.Trapdoor[i]) {
			return false
		}
	}
	return true
}

// QueryBytes returns the wire size of a trapdoor under the compact
// encoding the paper assumes (r bit-positions of log2(m) bits each).
func (s *Bloom) QueryBytes() int {
	return (s.r*bitsFor(s.mBits) + 7) / 8
}

func bitsFor(n int) int {
	return int(math.Ceil(math.Log2(float64(n))))
}

func setBit(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

func getBit(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// FalsePositiveRate estimates the filter's false-positive probability
// for a document holding nWords words: (1 - e^{-r·n/m})^r.
func (s *Bloom) FalsePositiveRate(nWords int) float64 {
	load := float64(s.r) * float64(nWords) / float64(s.mBits)
	return math.Pow(1-math.Exp(-load), float64(s.r))
}
