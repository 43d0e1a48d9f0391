package client

import "time"

// Test-only windows into the package's unexported state.

// The retry bound the tests pin.
const MaxMovedHops = maxMovedHops

// Refresh is the router's map refresh from its seeds and cached map.
func (rt *Router) Refresh() bool { return rt.refresh("", time.Time{}) }

// InFlight counts, over the session's links, the unanswered calls still
// registered and the request buffers not yet back in the pool.
func (s *Session) InFlight() (calls, buffers int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		l.mu.Lock()
		calls += len(l.pend)
		l.mu.Unlock()
		buffers += int(l.reqBufs.Load())
	}
	return calls, buffers
}

// FrameReads is, over the session's links, the count of in-flight read calls
// that brought no destination buffer — what makes a link's reader hand reply
// frames to responses.
func (s *Session) FrameReads() (n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, l := range s.links {
		n += int(l.frameReads.Load())
	}
	return n
}

// OpenFiles is the size of the session's open-file table.
func (s *Session) OpenFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
