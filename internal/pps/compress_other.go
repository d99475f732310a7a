//go:build !amd64 || purego

package pps

// shaniBuilt reports whether this build carries blockSHANI.
const shaniBuilt = false

const useSHANI = false

// blockSHANI is never selected on this build.
func blockSHANI(*[8]uint32, []byte) { panic("pps: no SHA-NI block function in this build") }
