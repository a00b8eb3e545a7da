package nethost

import "sync"

// mailboxDepth bounds a node's input queue: a post to a full mailbox
// blocks until the node takes a message or dies.
const mailboxDepth = 8192

// mailboxMinCap is the ring a mailbox starts with and the largest one it
// keeps once it drains, so a node kept at a shallow depth posts and
// dispatches without allocating.
const mailboxMinCap = 16

// mailbox is a node's input queue: one FIFO, in post order, whose memory
// follows its depth. It is not a buffered channel because one of
// mailboxDepth slots would allocate its whole ring up front and keep it for
// the node's life (8 192 slots of pointers, scanned by every GC cycle,
// however idle the node); this ring doubles as it fills, up to
// mailboxDepth, and is given back when the queue drains.
//
// close is the node's death: under the lock, so a post either entered
// before it (and dies with the node's memory) or is refused after it, and a
// poster blocked on a full mailbox is woken and refused.
type mailbox struct {
	mu      sync.Mutex
	buf     []mbMsg // ring of power-of-two length; n messages from head
	head    int
	n       int
	waiting int // posters blocked on a full mailbox
	closed  bool

	// ready carries a wakeup when the queue turns non-empty; space carries
	// one to a blocked poster when a pop or a kill frees it. One pending
	// signal is enough for each: the reader re-checks the queue under mu.
	ready chan struct{}
	space chan struct{}
}

func newMailbox() *mailbox {
	return &mailbox{ready: make(chan struct{}, 1), space: make(chan struct{}, 1)}
}

// post appends m, blocking while the mailbox is full. It reports false,
// with m dropped, if the mailbox is closed before m gets in.
func (b *mailbox) post(m mbMsg) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.n == mailboxDepth && !b.closed {
		b.waiting++
		b.mu.Unlock()
		<-b.space
		b.mu.Lock()
		b.waiting--
	}
	if b.closed {
		b.signalSpace() // pass the kill on to the next blocked poster
		return false
	}
	if b.n == len(b.buf) {
		b.grow()
	}
	b.buf[(b.head+b.n)&(len(b.buf)-1)] = m
	b.n++
	if b.n < mailboxDepth {
		b.signalSpace() // a pop may have freed more than this poster's slot
	}
	if b.n == 1 {
		signal(b.ready)
	}
	return true
}

// pop takes the oldest message; false if the mailbox is empty or closed.
func (b *mailbox) pop() (mbMsg, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.n == 0 || b.closed {
		return mbMsg{}, false
	}
	m := b.buf[b.head]
	b.buf[b.head] = mbMsg{}
	b.head = (b.head + 1) & (len(b.buf) - 1)
	b.n--
	if b.n == 0 && len(b.buf) > mailboxMinCap {
		b.buf, b.head = nil, 0
	}
	b.signalSpace()
	return m, true
}

// close refuses every later post, wakes the blocked ones to be refused,
// and drops what is queued.
func (b *mailbox) close() {
	b.mu.Lock()
	b.closed = true
	b.buf, b.head, b.n = nil, 0, 0
	b.signalSpace()
	b.mu.Unlock()
}

// grow doubles the ring (to mailboxMinCap from empty), unrolling it so the
// oldest message is at index 0.
func (b *mailbox) grow() {
	buf := make([]mbMsg, max(2*len(b.buf), mailboxMinCap))
	k := copy(buf, b.buf[b.head:])
	copy(buf[k:], b.buf[:b.head])
	b.buf, b.head = buf, 0
}

func (b *mailbox) signalSpace() {
	if b.waiting > 0 {
		signal(b.space)
	}
}

// signal leaves one pending wakeup on c unless one is already there.
func signal(c chan struct{}) {
	select {
	case c <- struct{}{}:
	default:
	}
}
