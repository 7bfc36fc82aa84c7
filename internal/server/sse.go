package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"

	"hypertree/internal/obs"
)

// sseWriter streams a run's progress as Server-Sent Events: the obs improve/
// lower_bound/detk_attempt/start/stop events as they happen, then one final
// "result" event carrying the same typed Response envelope a plain request
// gets. It is the obs.Recorder handed to core.Decompose for stream=sse
// requests.
//
// Solver goroutines must never block on a slow consumer — a stalled client
// would hold a worker slot past its budget (the deadline only trips at
// cooperative checkpoints). Record therefore does a non-blocking send into a
// bounded channel and drops on overflow; a dedicated goroutine owns all
// writes to the connection. Improve events are sparse (widths only ever
// tighten), so drops are rare and harmless: the final result event always
// carries the authoritative answer.
type sseWriter struct {
	w  http.ResponseWriter
	fl http.Flusher
	ch chan obs.Event

	mu     sync.Mutex // guards closed against late Records
	closed bool

	done    chan struct{}
	dropped atomic.Int64
}

// newSSEWriter starts a stream on w, or returns nil when w cannot flush.
// The 200 header goes out immediately: an SSE response is committed before
// the run's outcome is known, which is why the final frame carries it.
func newSSEWriter(w http.ResponseWriter) *sseWriter {
	fl, ok := w.(http.Flusher)
	if !ok {
		return nil
	}
	h := w.Header()
	h.Set("Content-Type", "text/event-stream")
	h.Set("Cache-Control", "no-cache")
	h.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	s := &sseWriter{w: w, fl: fl, ch: make(chan obs.Event, 64), done: make(chan struct{})}
	go s.loop()
	return s
}

// Record implements obs.Recorder. Safe for concurrent use and never blocks.
func (s *sseWriter) Record(e obs.Event) {
	switch e.Kind {
	case obs.KindStart, obs.KindStop, obs.KindImprove, obs.KindLowerBound, obs.KindAttempt:
	default:
		// Checkpoints, cache snapshots and mem samples are trace material,
		// not client material — they would swamp the stream.
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		// A straggler after finish; late events carry nothing the final
		// result frame did not.
		s.dropped.Add(1)
		return
	}
	select {
	case s.ch <- e:
	default:
		s.dropped.Add(1)
	}
}

// loop owns every write to the connection. Write errors mean the client went
// away; the run keeps its own cancellation path (the request context).
func (s *sseWriter) loop() {
	defer close(s.done)
	for e := range s.ch {
		data, err := json.Marshal(e)
		if err != nil {
			continue
		}
		if _, err := fmt.Fprintf(s.w, "event: %s\ndata: %s\n\n", e.Kind, data); err != nil {
			continue
		}
		s.fl.Flush()
	}
}

// finish closes the event stream and sends the terminal result frame. Called
// exactly once, from the request handler, after core.Decompose returned (so
// no solver goroutine records concurrently anymore — the mutex covers
// stragglers defensively).
func (s *sseWriter) finish(resp envelope) {
	s.mu.Lock()
	s.closed = true
	s.mu.Unlock()
	close(s.ch)
	<-s.done
	data, err := json.Marshal(resp)
	if err != nil {
		return
	}
	fmt.Fprintf(s.w, "event: result\ndata: %s\n\n", data)
	s.fl.Flush()
}
