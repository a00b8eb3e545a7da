package cgcast

import (
	"testing"
	"unsafe"
)

// Every cluster message is written into its frame's entry slice on the send
// path, and those stores land in lines the cache often does not hold: a
// store to a missing line waits in the store buffer until the line arrives,
// and the sends behind it stall once the buffer fills. The entry is packed
// to 40 bytes for that reason — a field added to it shows here, not as a
// new stall in the next profile.
func TestEntryFits(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size > 40 {
		t.Errorf("a frame entry takes %d bytes, more than 40", size)
	}
}
