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

// LandingSpace is the capacity of the landing space the session's idle
// Submit working set keeps between calls.
func (s *Session) LandingSpace() int {
	if sc := s.idle.Load(); sc != nil {
		return cap(sc.land)
	}
	return 0
}

// OpenFiles is the size of the session's open-file table.
func (s *Session) OpenFiles() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.files)
}
