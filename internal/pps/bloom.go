package pps

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
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
	mod      modulus  // reduces mod mBits
	r        int      // hash count
	maxWords int      // design load

	// enc pools reusable encode states: r kernels pre-keyed with the
	// sub-keys plus one blinding kernel re-keyed per document by the
	// nonce, and on a CPU with AVX-512F the 16 lanes that compute word
	// trapdoors and blind instead of them. Encryption is the write-side
	// hot path (every corpus load encrypts whole corpora); the pool keeps
	// it allocation-free past the filter itself while staying safe for
	// concurrent encoders.
	enc sync.Pool
}

// encState is one pooled encode scratch (see Bloom.enc). Between begin
// and end it encrypts one document into filter.
type encState struct {
	sub   []prfKernel        // keyed once by the scheme sub-keys
	blind prfKernel          // keyed per document by the nonce
	word  []byte             // the current word, padded once for all r sub-keys
	td    [prfBlockSize]byte // digestBlock: the current trapdoor element, padded
	rows  [][8]uint32        // the current word's trapdoor: r digests as big-endian words
	buf   []byte             // the per-element path's elements, as bytes
	lanes *encLanes          // the lane path's state; nil where it cannot run

	filter []byte
	mod    modulus
}

// encLanes is the lane path's state. Word trapdoors: hmac16el8's
// operands, lane i keyed by sub-key i and writing its digest to
// encState.rows. Blinding: hmac16's, the document's schedule and lane i
// evaluating element msg[i]; n elements are gathered, and the lanes
// past them are dead.
type encLanes struct {
	sub []KeySchedule // sub-key i's schedule, row i
	wk  [64]uint32    // the current word's padded block, W[t]+K[t]

	ks  KeySchedule
	msg [16][8]uint32 // trapdoor elements as big-endian words
	h   [2][16]uint32
	n   int
}

// laneRows has lane i read row i: hmac16el8 evaluates sub-keys 16c to
// 16c+15 from &encLanes.sub[16c].
var laneRows = [16]uint16{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}

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
	mBits := cfg.MaxWords * cfg.BitsPerWord
	s := &Bloom{subkeys: sub, mBits: mBits, mod: newModulus(mBits), r: cfg.Hashes, maxWords: cfg.MaxWords}
	s.enc.New = func() any { return s.newEncState(bestPath, useLanes) }
	return s
}

// newEncState returns an encode state whose kernels are on path p, with
// the lane path if lanes holds and p is not generic (the lane kernels
// take key schedules, which the generic path has none of).
func (s *Bloom) newEncState(p prfPath, lanes bool) *encState {
	st := &encState{sub: make([]prfKernel, len(s.subkeys)), rows: make([][8]uint32, len(s.subkeys)), td: digestBlock()}
	for i := range st.sub {
		st.sub[i].initPath(p)
		st.sub[i].setKey(s.subkeys[i])
	}
	st.blind.initPath(p)
	if lanes && p != pathGeneric {
		st.lanes = &encLanes{sub: make([]KeySchedule, len(s.subkeys))}
		for i, key := range s.subkeys {
			st.lanes.sub[i] = st.sub[i].derive(key)
		}
	}
	return st
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

// CopyMetadata returns copies of a record's nonce and filter, both in one
// allocation of their combined length: the record decoders call it once
// per record, whose bytes they read out of a reused buffer. Each copy's
// capacity ends where the copy does, so appending to one never writes
// into the other; an empty field comes back nil. Records never share an
// allocation, so a store that keeps one record of a batch pins nothing
// of the others.
func CopyMetadata(nonce, filter []byte) (nonceCopy, filterCopy []byte) {
	n, total := len(nonce), len(nonce)+len(filter)
	if total == 0 {
		return nil, nil
	}
	buf := make([]byte, total)
	copy(buf, nonce)
	copy(buf[n:], filter)
	if n > 0 {
		nonceCopy = buf[:n:n]
	}
	if total > n {
		filterCopy = buf[n:total:total]
	}
	return nonceCopy, filterCopy
}

// EncryptQuery produces the trapdoor for one keyword: the r elements of
// Trapdoor(word), each a view into its one buffer.
func (s *Bloom) EncryptQuery(word string) BloomQuery {
	td := s.Trapdoor(word)
	q := BloomQuery{Trapdoor: make([][]byte, s.r)}
	for i := range q.Trapdoor {
		q.Trapdoor[i] = td[i*sha256.Size : (i+1)*sha256.Size : (i+1)*sha256.Size]
	}
	return q
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
	st.word = append(st.word[:0], word...)
	rows := st.trapdoor()
	for i := range rows {
		td = appendWords(td, &rows[i])
	}
	s.enc.Put(st)
	return td
}

// appendWords appends the eight words of d to b, big-endian.
func appendWords(b []byte, d *[8]uint32) []byte {
	for w := 0; w < len(d); w += 2 {
		b = binary.BigEndian.AppendUint64(b, uint64(d[w])<<32|uint64(d[w+1]))
	}
	return b
}

// trapdoorRows returns td's whole elements as big-endian words, one row
// per element.
func trapdoorRows(td WordTrapdoor) [][8]uint32 {
	rows := make([][8]uint32, len(td)/sha256.Size)
	for i := range rows {
		for w := range rows[i] {
			rows[i][w] = binary.BigEndian.Uint32(td[sha256.Size*i+4*w:])
		}
	}
	return rows
}

// trapdoor pads the word in st.word in place and computes its r sub-key
// digests into st.rows. On the lane path a word whose padding fits one
// block takes 16 sub-keys per hmac16el8 call, its schedule broadcast to
// every lane; the sub-keys past the last 16 and longer words run on the
// kernels.
func (st *encState) trapdoor() [][8]uint32 {
	n := len(st.word)
	st.word = padTail(st.word, n)
	m, i := paddedMsg{st.word, n}, 0
	if l := st.lanes; l != nil && len(m.blocks) == prfBlockSize {
		scheduleWK(&l.wk, m.blocks)
		for ; i+16 <= len(st.sub); i += 16 {
			hmac16el8(&l.sub[i], &laneRows, &l.wk, (*[16][8]uint32)(st.rows[i:]))
		}
	}
	for ; i < len(st.sub); i++ {
		st.rows[i] = st.sub[i].digest(m)
	}
	return st.rows
}

// EncryptMetadata builds the blinded filter for a document's words,
// given as strings or as precomputed trapdoors. Up to twice the design
// load MaxWords is accepted, at the false-positive rate
// FalsePositiveRate gives for that many words; more is rejected rather
// than silently degrading the rate further.
func (s *Bloom) EncryptMetadata(words []string, trapdoors ...WordTrapdoor) (BloomMetadata, error) {
	if err := s.checkBudget(len(words) + len(trapdoors)); err != nil {
		return BloomMetadata{}, err
	}
	rnd, err := nonce()
	if err != nil {
		return BloomMetadata{}, err
	}
	return s.encryptMetadata(rnd, words, trapdoors), nil
}

// checkBudget rejects a document of more than twice MaxWords words.
func (s *Bloom) checkBudget(words int) error {
	if words > 2*s.maxWords {
		return fmt.Errorf("pps: %d words exceed filter budget (%d)", words, 2*s.maxWords)
	}
	return nil
}

// newMetadata returns a fresh nonce and a zero filter in one
// allocation, each capped where it ends, as CopyMetadata caps them.
func (s *Bloom) newMetadata() (BloomMetadata, error) {
	buf := make([]byte, nonceSize+(s.mBits+7)/8)
	if err := readNonce(buf[:nonceSize]); err != nil {
		return BloomMetadata{}, err
	}
	return BloomMetadata{Nonce: buf[:nonceSize:nonceSize], Filter: buf[nonceSize:]}, nil
}

// encryptMetadata is EncryptMetadata under a given nonce.
func (s *Bloom) encryptMetadata(rnd []byte, words []string, trapdoors []WordTrapdoor) BloomMetadata {
	st := s.enc.Get().(*encState)
	filter := s.encrypt(st, rnd, words, trapdoors)
	s.enc.Put(st)
	return BloomMetadata{Nonce: rnd, Filter: filter}
}

// encrypt builds the filter on st's path: each word's r sub-key
// digests, then every element of trapdoors.
func (s *Bloom) encrypt(st *encState, rnd []byte, words []string, trapdoors []WordTrapdoor) []byte {
	st.begin(rnd, make([]byte, (s.mBits+7)/8), s.mod)
	for _, w := range words {
		st.word = append(st.word[:0], w...)
		st.addWord()
	}
	for _, td := range trapdoors {
		st.add(trapdoorRows(td))
	}
	return st.end()
}

// begin starts a document whose elements set bits of filter, blinded
// under the nonce rnd. On the lane path the nonce's schedule is derived
// once, for every lane.
func (st *encState) begin(rnd, filter []byte, mod modulus) {
	st.filter, st.mod = filter, mod
	if l := st.lanes; l != nil {
		l.ks = st.blind.derive(rnd)
	} else {
		st.blind.setKey(rnd)
	}
}

// addWord adds the trapdoor elements of the word in st.word.
func (st *encState) addWord() { st.add(st.trapdoor()) }

// add sets the bit of each trapdoor element x of rows: PRF_rnd(x)'s
// leading 8 bytes mod MBits, on every path. The lane path copies the
// elements into its lanes and blinds each 16 in one hmac16 call.
func (st *encState) add(rows [][8]uint32) {
	if l := st.lanes; l != nil {
		for len(rows) > 0 {
			k := copy(l.msg[l.n:], rows)
			rows = rows[k:]
			if l.n += k; l.n == len(l.msg) {
				st.blindLanes()
			}
		}
		return
	}
	// The elements become bytes in a pass of their own: blockSHANI's
	// 16-byte loads of bytes written just before by narrower stores would
	// wait for those stores to retire (a slim document ran ~8 % slower).
	st.buf = st.buf[:0]
	for i := range rows {
		st.buf = appendWords(st.buf, &rows[i])
	}
	filter, mod, x := st.filter, st.mod, paddedMsg{st.td[:], sha256.Size}
	for b := st.buf; len(b) > 0; b = b[sha256.Size:] {
		copy(x.blocks, b[:sha256.Size])
		setBit(filter, mod.reduce(st.blind.sum64(x)))
	}
}

// blindLanes evaluates the gathered elements in one hmac16 call and sets
// the bit of each of the n live lanes; a dead lane's digest is ignored.
func (st *encState) blindLanes() {
	l := st.lanes
	hmac16(&l.ks, &l.msg, &l.h)
	for i := range l.n {
		setBit(st.filter, st.mod.reduce(uint64(l.h[0][i])<<32|uint64(l.h[1][i])))
	}
	l.n = 0
}

// end blinds what the lanes still hold and returns the document's
// filter, letting go of it.
func (st *encState) end() []byte {
	if l := st.lanes; l != nil && l.n > 0 {
		st.blindLanes()
	}
	filter := st.filter
	st.filter = nil
	return filter
}

// codeword maps a trapdoor element to a blinded bit position:
// y = PRF_nonce(x) mod m (§5.5.2's F_rnd(x_i)).
func (s *Bloom) codeword(rnd, x []byte) int {
	return s.mod.reduce(prfUint64(rnd, x))
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

// modulus reduces mod d without dividing: n mod d is the high 64 bits
// of (c·n mod 2^128)·d for c = ⌈2^128/d⌉ mod 2^128 (Lemire, Kaser and
// Kurz 2019, "Faster Remainder by Direct Computation"), exact for every
// 64-bit n and d.
type modulus struct{ d, chi, clo uint64 }

func newModulus(d int) modulus {
	qhi, rem := bits.Div64(0, ^uint64(0), uint64(d)) // c = ⌊(2^128-1)/d⌋ + 1
	qlo, _ := bits.Div64(rem, ^uint64(0), uint64(d))
	clo, carry := bits.Add64(qlo, 1, 0)
	return modulus{d: uint64(d), chi: qhi + carry, clo: clo}
}

// reduce returns n mod d.
func (m modulus) reduce(n uint64) int {
	hi, lo := bits.Mul64(m.clo, n)
	b1, b0 := bits.Mul64(hi+m.chi*n, m.d)
	a1, _ := bits.Mul64(lo, m.d)
	_, carry := bits.Add64(b0, a1, 0)
	return int(b1 + carry)
}

func setBit(b []byte, i int) { b[i/8] |= 1 << (i % 8) }

func getBit(b []byte, i int) bool { return b[i/8]&(1<<(i%8)) != 0 }

// FalsePositiveRate estimates the filter's false-positive probability
// for a document holding nWords words: (1 - e^{-r·n/m})^r.
func (s *Bloom) FalsePositiveRate(nWords int) float64 {
	load := float64(s.r) * float64(nWords) / float64(s.mBits)
	return math.Pow(1-math.Exp(-load), float64(s.r))
}
