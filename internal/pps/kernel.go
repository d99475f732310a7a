package pps

// The zero-allocation PRF kernel. The matching hot path evaluates
// HMAC-SHA-256 once per (trapdoor element, record) pair: ~2 evaluations
// for a record that misses, r = 17 per predicate for one that matches,
// millions per sub-query — the per-node matching rate that §2 and Badue
// et al. show bounds cluster capacity.
//
// HMAC(key, x) = H(opad-block ‖ H(ipad-block ‖ x)). Everything but the
// compressions that absorb x and the inner digest is loop invariant,
// and the kernel hoists it:
//
//   - The chaining values after the ipad and opad blocks depend on the
//     key alone. They are a KeySchedule: derived once per key (for a
//     stored record once per record — internal/store keeps them beside
//     the records) and installed with two 32-byte copies.
//   - The SHA-256 padding of x depends on x alone. A caller pads each
//     message once (appendPadded) and the kernel compresses whole blocks.
//
// One evaluation is then: copy the inner chaining value, compress the
// padded block(s) into it — the result IS the inner digest, because the
// padding was part of the input — write it big-endian into a
// preformatted outer block, and compress that into a copy of the outer
// chaining value. Two compressions for a 32-byte trapdoor element; no
// buffering, no finalisation, no hash.Hash.
//
// compress has two implementations, and init gives a kernel the first
// this process can run (bestPath):
//
//   - SHA-NI, on amd64 CPUs with the SHA extensions (probed as Go's own
//     crypto/sha256 probes them): Go's blockSHANI, called directly on
//     the [8]uint32 chaining value (sha256block_amd64.s).
//   - Portable, everywhere else and under -tags purego: the chaining
//     value goes in and out of crypto/sha256 through its marshaled state
//     (magic ‖ 8 big-endian state words ‖ 64-byte block buffer ‖ 64-bit
//     length), a layout Go does not promise. portableOK checks it once
//     per process against crypto/hmac.
//
// If neither can run, every kernel takes the generic path, which is
// crypto/hmac itself — the function the tests use as their reference
// (prf in prf.go).
//
// Beside the kernel, a CPU with AVX-512F (probed with the same CPUID
// code, useLanes) gives a Run the lane path (lanes.go): hmac16el
// evaluates one 32-byte trapdoor element under 16 records' KeySchedules
// per call, with the same answers as this kernel. The encoder's hmac16
// (bloom.go) takes one document's schedule and 16 of its elements per
// call, and its hmac16el8 a word's one padded block under 16 sub-keys,
// bit for bit the filter this kernel writes. Every path reduces a
// digest's leading 8 bytes mod MBits the same way (modulus, bloom.go).
//
// A kernel is NOT safe for concurrent use; embed one per Run (matching)
// or per pooled encode state (EncryptMetadata).

import (
	"bytes"
	"crypto/sha256"
	"crypto/subtle"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

const (
	prfBlockSize = sha256.BlockSize // 64

	// crypto/sha256's marshaled state, as portableOK verifies it.
	stateMagic = "sha\x03"
	stateCV    = len(stateMagic)                      // offset of the chaining value
	stateLen   = stateCV + sha256.Size + prfBlockSize // offset of the message length
	stateSize  = stateLen + 8
)

// sha256IV is SHA-256's initial chaining value (FIPS 180-4 §5.3.3).
var sha256IV = [8]uint32{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19}

// hmacPads are RFC 2104's ipad and opad blocks, which derive XORs the
// key into.
var hmacPads = [2][prfBlockSize]byte{
	[prfBlockSize]byte(bytes.Repeat([]byte{0x36}, prfBlockSize)),
	[prfBlockSize]byte(bytes.Repeat([]byte{0x5c}, prfBlockSize)),
}

// KeySchedule is the key-dependent half of the PRF: the SHA-256 chaining
// values after the ipad block (words 0-7) and after the opad block
// (words 8-15). It is a pure function of the key, 64 bytes with no
// pointers, so a store can keep one per record inline.
type KeySchedule [16]uint32

// paddedMsg is a PRF input with its SHA-256 padding already appended:
// blocks is x ‖ 0x80 ‖ 0… ‖ bitlen(64+|x|), a whole number of 64-byte
// blocks, and blocks[:n] is x.
type paddedMsg struct {
	blocks []byte
	n      int
}

// appendPadded appends x to dst, padded as the tail of a message that
// began with one 64-byte block (the HMAC pad). Any length of x works.
func appendPadded[T string | []byte](dst []byte, x T) []byte {
	return padTail(append(dst, x...), len(x))
}

// padTail appends to b, which ends with an n-byte x, the padding
// appendPadded appends after x.
func padTail(b []byte, n int) []byte {
	b = append(b, 0x80)
	for k := n + 1 + 8; k%prfBlockSize != 0; k++ {
		b = append(b, 0)
	}
	return binary.BigEndian.AppendUint64(b, uint64(prfBlockSize+n)*8)
}

// paddedLen is the length appendPadded appends for an x of n bytes.
func paddedLen(n int) int { return (n + 1 + 8 + prfBlockSize - 1) / prfBlockSize * prfBlockSize }

// padMsg pads x into a buffer of its own.
func padMsg(x []byte) paddedMsg { return paddedMsg{appendPadded(nil, x), len(x)} }

// digestBlock is appendPadded's result for a 32-byte x left zero: the
// template a digest is copied into to become the next hash's input (the
// outer hash's message; a trapdoor element under the blinding PRF).
func digestBlock() (b [prfBlockSize]byte) {
	appendPadded(b[:0], b[:sha256.Size])
	return b
}

// prfPath is how a kernel evaluates the PRF.
type prfPath uint8

const (
	pathGeneric  prfPath = iota // crypto/hmac (prf); the zero value
	pathPortable                // compress through crypto/sha256's marshaled state
	pathSHANI                   // compress with blockSHANI
)

// bestPath is the path init selects. Set once, before any kernel exists.
var bestPath = func() prfPath {
	switch {
	case useSHANI:
		return pathSHANI
	case portableOK:
		return pathPortable
	}
	return pathGeneric
}()

// sha256State is what the portable compress needs of crypto/sha256.
type sha256State interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// prfKernel is a reusable HMAC-SHA-256 evaluator for one key at a time.
// The zero value is on the generic path; init selects bestPath.
type prfKernel struct {
	path         prfPath
	inner, outer [8]uint32          // the installed KeySchedule
	block        [prfBlockSize]byte // the outer hash's message: a digestBlock
	pad          [prfBlockSize]byte // derive's pad block (a local would escape through sha.Write)

	sha   sha256State     // portable path only
	state [stateSize]byte // portable path only: the marshaled midstate

	key []byte // generic path only
}

// portableOK reports whether this toolchain's crypto/sha256 has the
// state layout the portable compress reads.
var portableOK = checkPortable()

func checkPortable() bool {
	h, ok := sha256.New().(sha256State)
	if !ok {
		return false
	}
	// The layout itself: a state one block in must marshal to the magic,
	// the chaining value, an empty buffer and the length 64.
	h.Write(make([]byte, prfBlockSize))
	s, err := h.AppendBinary(nil)
	if err != nil || len(s) != stateSize {
		return false
	}
	var want [stateSize]byte
	copy(want[:], stateMagic)
	copy(want[stateCV:stateCV+sha256.Size], s[stateCV:])
	binary.BigEndian.PutUint64(want[stateLen:], prfBlockSize)
	if !bytes.Equal(s, want[:]) || h.UnmarshalBinary(s) != nil {
		return false
	}
	// The evaluator: one-block and multi-block messages.
	var k prfKernel
	k.initPath(pathPortable)
	key := []byte("roar/pps kernel!")
	for _, n := range []int{sha256.Size, 100} {
		msg := bytes.Repeat([]byte{0xa5}, n)
		k.setKey(key)
		if d := k.sum(padMsg(msg)); !bytes.Equal(d[:], prf(key, msg)) {
			return false
		}
	}
	return true
}

func (k *prfKernel) init() { k.initPath(bestPath) }

func (k *prfKernel) initPath(p prfPath) {
	*k = prfKernel{path: p, block: digestBlock()}
	if p == pathPortable {
		k.sha = sha256.New().(sha256State)
		copy(k.state[:], stateMagic)
	}
}

// compress absorbs blocks, a whole number of 64-byte blocks, into the
// chaining value h.
func (k *prfKernel) compress(h *[8]uint32, blocks []byte) {
	if k.path == pathSHANI {
		blockSHANI(h, blocks)
		return
	}
	// Portable: restore h as a midstate, Write, read it back. Neither
	// the restore nor the marshal can fail: portableOK checked both on
	// this implementation with states of exactly this shape.
	cv := (*[sha256.Size]byte)(k.state[stateCV:])
	for i, v := range h {
		binary.BigEndian.PutUint32(cv[4*i:], v)
	}
	_ = k.sha.UnmarshalBinary(k.state[:])
	k.sha.Write(blocks)
	_, _ = k.sha.AppendBinary(k.state[:0]) // in place: state has the exact size
	for i := range h {
		h[i] = binary.BigEndian.Uint32(cv[4*i:])
	}
}

// derive computes the schedule of key: two compressions from the IV,
// allocation-free. Keys longer than the block size are hashed first,
// per RFC 2104 (none of our callers hit that: nonces are 16 bytes,
// derived sub-keys 32). On the generic path there is nothing to
// precompute and the schedule is zero.
func (k *prfKernel) derive(key []byte) (ks KeySchedule) {
	if k.path == pathGeneric {
		return ks
	}
	if len(key) > prfBlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	for i := range hmacPads {
		k.pad = hmacPads[i]
		subtle.XORBytes(k.pad[:len(key)], k.pad[:len(key)], key)
		h := sha256IV
		k.compress(&h, k.pad[:])
		copy(ks[8*i:], h[:])
	}
	return ks
}

// install keys the kernel from a precomputed schedule.
func (k *prfKernel) install(ks *KeySchedule) {
	k.inner = [8]uint32(ks[:8])
	k.outer = [8]uint32(ks[8:])
}

// setKey re-keys the kernel: derive the schedule, install it.
func (k *prfKernel) setKey(key []byte) {
	if k.path == pathGeneric {
		k.key = append(k.key[:0], key...)
		return
	}
	ks := k.derive(key)
	k.install(&ks)
}

// hmac is HMAC(key, x) for the padded x, as the outer hash's final
// chaining value (the digest's eight big-endian words). Compress paths
// only.
func (k *prfKernel) hmac(m paddedMsg) [8]uint32 {
	h := k.inner
	k.compress(&h, m.blocks)
	for i, v := range h {
		binary.BigEndian.PutUint32(k.block[4*i:], v)
	}
	h = k.outer
	k.compress(&h, k.block[:])
	return h
}

// digest is HMAC(key, x) for the padded x as the digest's eight
// big-endian words, on every path.
func (k *prfKernel) digest(m paddedMsg) (h [8]uint32) {
	if k.path != pathGeneric {
		return k.hmac(m)
	}
	d := prf(k.key, m.blocks[:m.n])
	for i := range h {
		h[i] = binary.BigEndian.Uint32(d[4*i:])
	}
	return h
}

// sum computes HMAC(key, x) for the padded x. Identical to prf().
func (k *prfKernel) sum(m paddedMsg) (d [sha256.Size]byte) {
	for i, v := range k.digest(m) {
		binary.BigEndian.PutUint32(d[4*i:], v)
	}
	return d
}

// sum64 is sum truncated to the leading 8 bytes as a big-endian uint64 —
// the bit-position derivation used by matching (prfUint64's
// zero-allocation twin).
func (k *prfKernel) sum64(m paddedMsg) uint64 {
	if k.path == pathGeneric {
		return prfUint64(k.key, m.blocks[:m.n])
	}
	h := k.hmac(m)
	return uint64(h[0])<<32 | uint64(h[1])
}

// derivePool holds the kernel AppendKeySchedules derives with.
var derivePool = sync.Pool{New: func() any {
	k := new(prfKernel)
	k.init()
	return k
}}

// AppendKeySchedules appends the key schedule of each record's nonce to
// dst. Safe for concurrent use; allocates only to grow dst.
func AppendKeySchedules(dst []KeySchedule, recs []Encoded) []KeySchedule {
	k := derivePool.Get().(*prfKernel)
	dst = appendKeySchedules(k, dst, recs)
	derivePool.Put(k)
	return dst
}

func appendKeySchedules(k *prfKernel, dst []KeySchedule, recs []Encoded) []KeySchedule {
	for i := range recs {
		dst = append(dst, k.derive(recs[i].Nonce))
	}
	return dst
}
