package tracker

import (
	"testing"
	"unsafe"
)

// Every protocol send builds a sendEffect and hands it on by value, through
// stores that may wait on cold lines in the store buffer, so the effect is
// kept to 40 bytes — a field added to it shows here, not as a new stall in
// the next profile.
func TestSendEffectFits(t *testing.T) {
	if size := unsafe.Sizeof(sendEffect{}); size > 40 {
		t.Errorf("a send effect takes %d bytes, more than 40", size)
	}
}

// Every arm writes its row's deadline slot, deadline and wakeup ref, and on
// a big table that slot's line is cold: a stall on such a store holds the
// store buffer, as the send effect's did, and each byte added to the slot
// spreads more slots over two lines. The slot is kept to 48 bytes — four
// deadlines and four 32-bit refs.
func TestTimerSlotFits(t *testing.T) {
	if size := unsafe.Sizeof(timerSlot{}); size > 48 {
		t.Errorf("a deadline slot takes %d bytes, more than 48", size)
	}
}
