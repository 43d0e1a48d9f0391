package replica

import (
	"fmt"
	"time"
)

// MigrationDrain hands this node's log off to a shard's new owner group
// (the shard authority's retire hook calls it after the routing fence is
// in place; see internal/shard). On a backup it is a no-op — only the
// primary owns the log. On the primary it takes the op gate exclusively,
// quiescing every executor: with the fence already answering Moved — and
// re-checked under this same gate — no further entry can enter the log, so
// the tip read there is final. It then waits until every link whose
// advertised address is in addrs has acknowledged the tip.
//
// When it returns nil, every operation ever acknowledged to a client is
// applied on the new owners — the migration's zero-loss barrier. Open
// descriptors need nothing extra: a new owner that joined mid-load got them
// in its join manifest and every later one from the log.
func (n *Node) MigrationDrain(addrs []string, timeout time.Duration) error {
	if n.Role() != RolePrimary {
		return nil
	}
	n.opGate.Lock()
	n.mu.Lock()
	tip := n.seq
	n.mu.Unlock()
	n.opGate.Unlock()
	return n.WaitCaughtUp(addrs, tip, timeout)
}

// WaitCaughtUp blocks until every live link advertised at one of addrs has
// cumulatively acknowledged tip, with at least one such link present.
// It is the handoff barrier's wait half: requiring every matching link
// (not just one) means any target-group node replicating from this
// primary is fully caught up when the migration coordinator gets its
// reply.
func (n *Node) WaitCaughtUp(addrs []string, tip uint64, timeout time.Duration) error {
	if tip == 0 || len(addrs) == 0 {
		return nil
	}
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	want := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		want[a] = true
	}
	// A close buffers its entry without kicking the writer: kick every
	// link, or a close at the log's tip waits for the next heartbeat.
	n.mu.Lock()
	for l := range n.links {
		l.wake()
	}
	n.mu.Unlock()
	deadline := time.Now().Add(timeout)
	for {
		n.mu.Lock()
		present := 0
		var lowest uint64
		caught := true
		for l := range n.links {
			if !want[l.addr] {
				continue
			}
			present++
			if l.ackedSeq < tip {
				caught = false
				if present == 1 || l.ackedSeq < lowest {
					lowest = l.ackedSeq
				}
			}
		}
		closed := n.closed
		n.mu.Unlock()
		if present > 0 && caught {
			return nil
		}
		if closed {
			return fmt.Errorf("replica: node closed during migration drain")
		}
		if time.Now().After(deadline) {
			if present == 0 {
				return fmt.Errorf("replica: migration drain: no replication link from new owners %v", addrs)
			}
			return fmt.Errorf("replica: migration drain timeout: new owners at seq %d, need %d", lowest, tip)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
