//go:build !amd64 || purego

package pps

// shaniBuilt and lanesBuilt report whether this build carries
// blockSHANI and the 16-lane kernels.
const shaniBuilt, lanesBuilt = false, false

const useSHANI, useLanes = false, false

// blockSHANI is never selected on this build.
func blockSHANI(*[8]uint32, []byte) { panic("pps: no SHA-NI block function in this build") }

// The 16-lane kernels are never selected on this build.
func hmac16(*KeySchedule, *[16][8]uint32, *[2][16]uint32) { panic(noLanes) }

func hmac16el(*KeySchedule, *[16]uint16, *[64]uint32, *[2][16]uint32) { panic(noLanes) }

func hmac16el8(*KeySchedule, *[16]uint16, *[64]uint32, *[16][8]uint32) { panic(noLanes) }

func prefetch16(*[16]*byte) { panic(noLanes) }

const noLanes = "pps: no 16-lane kernel in this build"
