package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one traced interval at a layer boundary, recorded from the
// benchmark's side of the call. Op ties the spans of one operation (a move,
// a find) together; Parent is the index of the span that caused it, -1 for
// a root.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log was opened
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Op      uint64 `json:"op,omitempty"`
}

// spanLog keeps spans in memory and writes them out once, when the
// benchmark ends. A nil *spanLog records nothing, so untraced runs pay only
// a nil check. Spans beyond the cap are counted, not kept: the file is a
// sample of a long run, the counters are exact.
type spanLog struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int64
}

const maxSpans = 400_000

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil or full log).
func (l *spanLog) begin(name string, parent int, op uint64) int {
	if l == nil {
		return -1
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartNs: now, EndNs: -1, Parent: parent, Op: op})
	return len(l.spans) - 1
}

// end closes the span begin returned.
func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	now := time.Since(l.t0).Nanoseconds()
	l.mu.Lock()
	l.spans[i].EndNs = now
	l.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the load
// generator stamps wall times itself).
func (l *spanLog) add(name string, start, end time.Time, parent int, op uint64) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartNs: start.Sub(l.t0).Nanoseconds(),
		EndNs: end.Sub(l.t0).Nanoseconds(), Parent: parent, Op: op})
	return len(l.spans) - 1
}

// write stores the spans as one JSON document.
func (l *spanLog) write(path string, meta map[string]any) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	l.mu.Lock()
	doc := map[string]any{"meta": meta, "dropped": l.dropped, "spans": l.spans}
	err = json.NewEncoder(w).Encode(doc)
	l.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
