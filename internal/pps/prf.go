// Package pps implements Privacy Preserving Search (Chapter 5): schemes
// that let an untrusted server match encrypted queries against encrypted
// metadata without learning the contents of either.
//
// The package provides the five schemes of §5.5 —
//
//   - Equal: exact-value matching (Song et al.'s first step).
//   - Bloom: keyword matching via blinded Bloom filters (Goh).
//   - Dictionary: keyword matching via a blinded dictionary bitmap
//     (Chang & Mitzenmacher).
//   - Inequality and Range: numeric matching via reference points and
//     overlapping partitions (this paper's novel constructions).
//   - Ranked: result ranking via rank-bucket keywords.
//
// plus the combined per-file metadata encoding of §5.6.4 and the
// multi-predicate query engine with dynamic selectivity ordering of
// §5.6.5.
//
// Primitive substitution (documented in DESIGN.md): the paper uses SHA-1
// as its pseudorandom function and AES as its pseudorandom permutation;
// we use HMAC-SHA-256 as the PRF and a PRF-seeded Fisher-Yates shuffle
// as the PRP over dictionary indices. The schemes only require "a PRF"
// and "a PRP", so the security argument is unchanged.
package pps

import (
	"crypto/hmac"
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
)

// KeySize is the size in bytes of all symmetric keys used by the package.
const KeySize = 32

// MasterKey is the user's private key. All scheme sub-keys are derived
// from it with domain-separated PRF applications, so a single key
// protects the whole metadata encoding.
type MasterKey [KeySize]byte

// NewMasterKey draws a fresh key from crypto/rand.
func NewMasterKey() (MasterKey, error) {
	var k MasterKey
	if _, err := rand.Read(k[:]); err != nil {
		return MasterKey{}, fmt.Errorf("pps: generating master key: %w", err)
	}
	return k, nil
}

// TestKey derives a deterministic key from a seed; for tests and
// reproducible benchmarks only.
func TestKey(seed int64) MasterKey {
	var k MasterKey
	rng := mrand.New(mrand.NewSource(seed))
	for i := range k {
		k[i] = byte(rng.Intn(256))
	}
	return k
}

// Derive produces a domain-separated sub-key.
func (k MasterKey) Derive(domain string) []byte {
	return prf(k[:], []byte(domain))
}

// prf is the pseudorandom function: HMAC-SHA-256.
func prf(key, data []byte) []byte {
	m := hmac.New(sha256.New, key)
	m.Write(data)
	return m.Sum(nil)
}

// prfUint64 interprets the first 8 bytes of the PRF output as a uint64,
// handy for deriving bit positions and permutation seeds.
func prfUint64(key, data []byte) uint64 {
	return binary.BigEndian.Uint64(prf(key, data))
}

// nonceSize is the size in bytes of a record's nonce.
const nonceSize = 16

// nonce returns a fresh random nonce.
func nonce() ([]byte, error) {
	b := make([]byte, nonceSize)
	if err := readNonce(b); err != nil {
		return nil, err
	}
	return b, nil
}

// readNonce fills b with a fresh random nonce.
func readNonce(b []byte) error {
	if _, err := rand.Read(b); err != nil {
		return fmt.Errorf("pps: generating nonce: %w", err)
	}
	return nil
}

// permutation returns a pseudorandom permutation of [0, n) determined by
// key: the PRP over dictionary indices used by the Dictionary scheme.
func permutation(key []byte, n int) []int {
	seed := int64(prfUint64(key, []byte("prp-seed")))
	rng := mrand.New(mrand.NewSource(seed))
	p := rng.Perm(n)
	return p
}

// invert returns the inverse permutation.
func invert(p []int) []int {
	inv := make([]int, len(p))
	for i, v := range p {
		inv[v] = i
	}
	return inv
}
