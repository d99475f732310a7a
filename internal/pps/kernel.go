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
//     message once (appendPadded) and the kernel writes whole blocks.
//
// One evaluation is then: restore the inner midstate, Write the padded
// block(s), read the chaining value — which IS the digest, because the
// padding was part of the input — into a preformatted outer block, and
// do the same from the outer midstate. Two compressions for a 32-byte
// trapdoor element; no buffering, no Sum, no finalisation.
//
// Restoring and reading a midstate goes through crypto/sha256's
// marshaled state (magic ‖ 8 big-endian state words ‖ 64-byte block
// buffer ‖ 64-bit length), a layout Go does not promise. fastPRF checks
// it once per process against crypto/hmac; if the check fails every
// kernel takes the generic path, which is crypto/hmac itself — the
// function the tests use as their reference (prf in prf.go).
//
// A kernel is NOT safe for concurrent use; embed one per Run (matching)
// or per pooled encode state (EncryptMetadata).

import (
	"bytes"
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"
)

const (
	prfBlockSize = sha256.BlockSize // 64

	// crypto/sha256's marshaled state, as fastPRF verifies it.
	stateMagic = "sha\x03"
	stateCV    = len(stateMagic)                      // offset of the chaining value
	stateLen   = stateCV + sha256.Size + prfBlockSize // offset of the message length
	stateSize  = stateLen + 8
)

// KeySchedule is the key-dependent half of the PRF: the SHA-256 chaining
// values after the ipad block and after the opad block, 32 bytes each.
// It is a pure function of the key and holds no pointers, so a store
// can keep one per record inline.
type KeySchedule [2 * sha256.Size]byte

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
	dst = append(dst, x...)
	dst = append(dst, 0x80)
	for n := len(x) + 1 + 8; n%prfBlockSize != 0; n++ {
		dst = append(dst, 0)
	}
	return binary.BigEndian.AppendUint64(dst, uint64(prfBlockSize+len(x))*8)
}

// padMsg pads x into a buffer of its own.
func padMsg(x []byte) paddedMsg { return paddedMsg{appendPadded(nil, x), len(x)} }

// digestBlock is appendPadded's result for a 32-byte x left zero: the
// template a digest is copied into to become the next hash's input (the
// outer hash's message; a trapdoor element under the blinding PRF).
func digestBlock() (b [prfBlockSize]byte) {
	appendPadded(b[:0], b[:sha256.Size])
	return b
}

// sha256State is what the fast evaluator needs of crypto/sha256.
type sha256State interface {
	hash.Hash
	encoding.BinaryAppender
	encoding.BinaryUnmarshaler
}

// prfKernel is a reusable HMAC-SHA-256 evaluator for one key at a time.
// The zero value is not usable; call init first.
type prfKernel struct {
	h sha256State // nil selects the generic path

	// Marshaled states one block in: magic ‖ chaining value ‖ empty
	// buffer ‖ length 64. Installing a key overwrites the chaining values.
	inner, outer [stateSize]byte
	block        [prfBlockSize]byte // the outer hash's message: a digestBlock
	scratch      [stateSize]byte    // AppendBinary target; holds the last digest

	key []byte // generic path only
}

// fastPRF reports whether this toolchain's crypto/sha256 has the state
// layout the fast evaluator reads. Set once, before any kernel exists.
var fastPRF = checkFastPRF()

func checkFastPRF() bool {
	h, ok := sha256.New().(sha256State)
	if !ok {
		return false
	}
	var k prfKernel
	k.initFast(h)
	// The layout itself: a state one block in must marshal to exactly
	// what initFast lays out around the chaining value.
	h.Write(k.block[:])
	s, err := h.AppendBinary(nil)
	if err != nil || len(s) != stateSize {
		return false
	}
	copy(k.inner[stateCV:stateCV+sha256.Size], s[stateCV:])
	if !bytes.Equal(s, k.inner[:]) || h.UnmarshalBinary(s) != nil {
		return false
	}
	// The evaluator: one-block and multi-block messages.
	key := []byte("roar/pps kernel!")
	for _, n := range []int{sha256.Size, 100} {
		msg := bytes.Repeat([]byte{0xa5}, n)
		k.setKey(key)
		if !bytes.Equal(k.sum(padMsg(msg)), prf(key, msg)) {
			return false
		}
	}
	return true
}

func (k *prfKernel) init() {
	if fastPRF {
		k.initFast(sha256.New().(sha256State))
	}
}

func (k *prfKernel) initFast(h sha256State) {
	k.h = h
	k.block = digestBlock()
	for _, s := range []*[stateSize]byte{&k.inner, &k.outer} {
		copy(s[:], stateMagic)
		binary.BigEndian.PutUint64(s[stateLen:], prfBlockSize)
	}
}

// derive computes the schedule of key: two compressions and two state
// marshals, allocation-free. Keys longer than the block size are hashed
// first, per RFC 2104 (none of our callers hit that: nonces are 16
// bytes, derived sub-keys 32). On the generic path there is nothing to
// precompute and the schedule is zero.
func (k *prfKernel) derive(key []byte) (ks KeySchedule) {
	if k.h == nil {
		return ks
	}
	if len(key) > prfBlockSize {
		sum := sha256.Sum256(key)
		key = sum[:]
	}
	// The pad block is built in scratch (a local would escape through
	// the interface call); AppendBinary overwrites it only after Write
	// has consumed it.
	pad := k.scratch[:prfBlockSize]
	for i, c := range [2]byte{0x36, 0x5c} {
		for j := range pad {
			pad[j] = c
		}
		for j, b := range key {
			pad[j] ^= b
		}
		k.h.Reset()
		k.h.Write(pad)
		s, _ := k.h.AppendBinary(k.scratch[:0]) // cannot fail: fastPRF checked it
		copy(ks[i*sha256.Size:(i+1)*sha256.Size], s[stateCV:])
	}
	return ks
}

// install keys the kernel from a precomputed schedule.
func (k *prfKernel) install(ks *KeySchedule) {
	copy(k.inner[stateCV:stateCV+sha256.Size], ks[:sha256.Size])
	copy(k.outer[stateCV:stateCV+sha256.Size], ks[sha256.Size:])
}

// setKey re-keys the kernel: derive the schedule, install it.
func (k *prfKernel) setKey(key []byte) {
	if k.h == nil {
		k.key = append(k.key[:0], key...)
		return
	}
	ks := k.derive(key)
	k.install(&ks)
}

// sum computes HMAC(key, x) for the padded x and returns the 32-byte
// digest, valid until the kernel's next call. Identical to prf().
func (k *prfKernel) sum(m paddedMsg) []byte {
	if k.h == nil {
		return prf(k.key, m.blocks[:m.n])
	}
	// Restore and marshal cannot fail: fastPRF checked both on this
	// implementation with states of exactly this shape.
	_ = k.h.UnmarshalBinary(k.inner[:])
	k.h.Write(m.blocks)
	s, _ := k.h.AppendBinary(k.scratch[:0])
	copy(k.block[:sha256.Size], s[stateCV:])
	_ = k.h.UnmarshalBinary(k.outer[:])
	k.h.Write(k.block[:])
	s, _ = k.h.AppendBinary(k.scratch[:0])
	return s[stateCV : stateCV+sha256.Size]
}

// sum64 is sum truncated to the leading 8 bytes as a big-endian uint64 —
// the bit-position derivation used by matching (prfUint64's
// zero-allocation twin).
func (k *prfKernel) sum64(m paddedMsg) uint64 {
	return binary.BigEndian.Uint64(k.sum(m))
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
	for i := range recs {
		dst = append(dst, k.derive(recs[i].Nonce))
	}
	derivePool.Put(k)
	return dst
}
