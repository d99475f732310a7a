//go:build !amd64 || purego

package pps

// shaniBuilt and lanesBuilt report whether this build carries
// blockSHANI and hmac16.
const shaniBuilt, lanesBuilt = false, false

const useSHANI, useLanes = false, false

// blockSHANI is never selected on this build.
func blockSHANI(*[8]uint32, []byte) { panic("pps: no SHA-NI block function in this build") }

// hmac16 and prefetch are never selected on this build.
func hmac16(*[16][16]uint32, *[8]uint32, *[16]int32, *[2][16]uint32) {
	panic("pps: no 16-lane kernel in this build")
}

func prefetch([]byte, *KeySchedule) { panic("pps: no 16-lane kernel in this build") }
