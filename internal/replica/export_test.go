package replica

import "simurgh/internal/fsapi"

// NextFD is one past the highest descriptor any of the node's sessions was
// ever handed: the number the node's next open may not go below.
func (n *Node) NextFD() (next fsapi.FD) {
	n.opGate.Lock()
	defer n.opGate.Unlock()
	n.mu.Lock()
	defer n.mu.Unlock()
	for _, s := range n.sessions {
		next = max(next, s.next)
	}
	return next
}
