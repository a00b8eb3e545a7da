//go:build amd64 || arm64

package prefetch

import "unsafe"

// Line asks for the cache line holding p to be loaded into every cache
// level (PREFETCHT0 on amd64, PRFM PLDL1KEEP on arm64). p must point into
// live memory; nothing is read from it.
//
//go:noescape
func Line(p unsafe.Pointer)
