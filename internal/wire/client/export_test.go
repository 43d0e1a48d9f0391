package client

// Test-only windows into the package's unexported state.

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
