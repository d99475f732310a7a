//go:build amd64 && !purego

package pps

// shaniBuilt reports whether this build carries blockSHANI.
const shaniBuilt = true

// useSHANI mirrors crypto/sha256's own test for its SHA-NI block
// function: AVX with OS support for the YMM state, SHA, SSE4.1, SSSE3.
var useSHANI = func() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	_, ebx7, _, _ := cpuid(7, 0)
	bit := func(r uint32, n uint) bool { return r>>n&1 == 1 }
	osAVX := bit(ecx1, 27) && xgetbv()&6 == 6 // OSXSAVE; XMM and YMM enabled
	return bit(ecx1, 28) && osAVX && bit(ebx7, 29) && bit(ecx1, 19) && bit(ecx1, 9)
}()

// blockSHANI is Go's SHA-NI block function (sha256block_amd64.s): it
// absorbs the whole 64-byte blocks of p into the chaining value dig.
//
//go:noescape
func blockSHANI(dig *[8]uint32, p []byte)

func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax uint32)
