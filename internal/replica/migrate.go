package replica

import (
	"fmt"
	"time"

	"simurgh/internal/wire"
)

// MigrationDrain hands this node's log off to a shard's new owner group
// (the shard authority's retire hook calls it after the routing fence is
// in place; see internal/shard). On a backup it is a no-op — only the
// primary owns the log. On the primary it:
//
//  1. Takes the op gate exclusively, quiescing every executor. With the
//     fence already answering Moved — and re-checked under this same gate —
//     no further entry can enter the log: the tip read below is final.
//  2. Re-exports every session's open descriptors as synthetic open log
//     entries. Backups replay opens they have never seen and skip ones
//     they have (the apply path is idempotent on live descriptors), so a
//     target that joined mid-load — after the original opens shipped in
//     the snapshot manifest's blind spot — rebuilds the full descriptor
//     table before the handoff completes.
//  3. Releases the gate and waits until every link whose advertised
//     address is in addrs has acknowledged the tip.
//
// When it returns nil, every operation ever acknowledged to a client is
// applied on the new owners, descriptors included — the migration's
// zero-loss barrier.
func (n *Node) MigrationDrain(addrs []string, timeout time.Duration) error {
	if n.Role() != RolePrimary {
		return nil
	}
	n.opGate.Lock()
	n.mu.Lock()
	if !n.closed {
		for _, sess := range n.sessions {
			n.reexportLocked(sess)
		}
	}
	tip := n.seq
	n.mu.Unlock()
	n.opGate.Unlock()
	return n.WaitCaughtUp(addrs, tip, timeout)
}

// reexportLocked ships one session's open-descriptor table as synthetic
// log entries: an open (origin path, sanitized flags) that re-binds each
// virtual descriptor. Positions need no entry: they never left the client.
// The entries carry request ID zero — they answer no client.
// Descriptors whose origin file was unlinked while open cannot reopen and
// are skipped on the target (replay_errors counts them; DESIGN.md §9
// documents the limitation). Caller holds opGate and n.mu.
func (n *Node) reexportLocked(sess *session) {
	for vfd, oi := range sess.opens {
		if _, ok := sess.fdMap[vfd]; !ok {
			continue
		}
		n.seq++
		n.shipLocked(&wire.Entry{Seq: n.seq, Sess: sess.id, Kind: wire.EntryOp, ResFD: vfd,
			Req: wire.Request{Op: wire.OpOpen, Path: oi.path, Flags: uint32(oi.flags), Perm: oi.perm}}, 0)
		n.m.fdReexports.Add(1)
	}
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
