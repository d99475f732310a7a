//go:build amd64 && !purego

package pps

//go:generate go run gen_hmac16.go

// shaniBuilt and lanesBuilt report whether this build carries
// blockSHANI and the 16-lane kernels.
const shaniBuilt, lanesBuilt = true, true

// useSHANI mirrors crypto/sha256's own test for its SHA-NI block
// function: AVX with OS support for the YMM state, SHA, SSE4.1, SSSE3.
// useLanes asks for AVX-512F with OS support for the opmask and ZMM
// state, which is everything the 16-lane kernels execute.
var useSHANI, useLanes = func() (shani, lanes bool) {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false, false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	bit := func(r uint32, n uint) bool { return r>>n&1 == 1 }
	if !bit(ecx1, 27) { // OSXSAVE: XGETBV may run
		return false, false
	}
	xcr0 := xgetbv()
	osAVX := xcr0&6 == 6          // XMM and YMM enabled
	osAVX512 := xcr0&0xe6 == 0xe6 // and opmask, ZMM0-15 upper halves, ZMM16-31
	shani = bit(ecx1, 28) && osAVX && bit(ebx7, 29) && bit(ecx1, 19) && bit(ecx1, 9)
	return shani, osAVX512 && bit(ebx7, 16)
}()

// blockSHANI is Go's SHA-NI block function (sha256block_amd64.s): it
// absorbs the whole 64-byte blocks of p into the chaining value dig.
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

// hmac16 is the 16-lane HMAC-SHA-256 (hmac16_amd64.s, written by
// gen_hmac16.go): lane i evaluates HMAC under the key schedule ks of the
// 32-byte message whose big-endian words are msg[i], and writes the
// digest's words 0 and 1 to out[0][i] and out[1][i].
//
//go:noescape
func hmac16(ks *KeySchedule, msg *[16][8]uint32, out *[2][16]uint32)

// hmac16el is hmac16 the other way round: one message for every lane,
// whose inner block's W[t]+K[t] is wk, and lane i keyed by ks[idx[i]],
// unchecked.
//
//go:noescape
func hmac16el(ks *KeySchedule, idx *[16]uint16, wk *[64]uint32, out *[2][16]uint32)

// hmac16el8 is hmac16el writing the whole digest: lane i's eight words
// to out[i].
//
//go:noescape
func hmac16el8(ks *KeySchedule, idx *[16]uint16, wk *[64]uint32, out *[16][8]uint32)

// prefetch16 asks for the cache lines of *p[0..15], without waiting.
//
//go:noescape
func prefetch16(p *[16]*byte)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
