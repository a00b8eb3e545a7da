//go:build !amd64 && !arm64

package prefetch

import "unsafe"

// Line does nothing on this architecture: it has no prefetch instruction
// here, and a prefetch is only a hint.
func Line(p unsafe.Pointer) {}
