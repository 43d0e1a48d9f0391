package client

// Test-only windows into the package's unexported state.

// The retry bounds the tests pin.
const (
	OverloadRetries = overloadRetries
	MaxMovedHops    = maxMovedHops
)

// Refresh is the router's map refresh from its seeds and cached map.
func (rt *Router) Refresh() bool { return rt.refresh("") }

// InFlight counts, over the routed session's shard sessions, the unanswered
// calls still registered and the request buffers not yet back in the pool.
func (ss *RoutedSession) InFlight() (calls, buffers int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.sessions {
		s.mu.Lock()
		calls += len(s.pend)
		s.mu.Unlock()
		buffers += int(s.reqBufs.Load())
	}
	return calls, buffers
}

// FrameReads is the session's count of in-flight read calls that brought no
// destination buffer — what makes its reader hand reply frames to responses.
func (s *Session) FrameReads() int { return int(s.frameReads.Load()) }

// FrameReads sums Session.FrameReads over the routed session's shards.
func (ss *RoutedSession) FrameReads() (n int) {
	ss.mu.Lock()
	defer ss.mu.Unlock()
	for _, s := range ss.sessions {
		n += s.FrameReads()
	}
	return n
}
