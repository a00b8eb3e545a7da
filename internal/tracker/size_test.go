package tracker

import (
	"testing"
	"unsafe"
)

// Every protocol send builds a sendEffect and hands it on by value, through
// stores that may wait on cold lines in the store buffer, so the effect is
// kept to 48 bytes — a field added to it shows here, not as a new stall in
// the next profile.
func TestSendEffectFits(t *testing.T) {
	if size := unsafe.Sizeof(sendEffect{}); size > 48 {
		t.Errorf("a send effect takes %d bytes, more than 48", size)
	}
}
