package replica

import (
	"bytes"
	"fmt"
	"io"
	"sync/atomic"
)

// counters are the node's replication metrics, exported as Prometheus
// series through WriteMetrics (an export.Extra).
type counters struct {
	resumes        atomic.Uint64
	dedupHits      atomic.Uint64
	entriesShipped atomic.Uint64
	bytesShipped   atomic.Uint64
	framesShipped  atomic.Uint64
	entriesApplied atomic.Uint64
	applyParallel  atomic.Uint64
	replaySkipped  atomic.Uint64
	replayErrors   atomic.Uint64
	snapshotBytes  atomic.Uint64
	joins          atomic.Uint64
	promotions     atomic.Uint64
	heartbeatRTT   atomic.Uint64 // last measured, ns
	primarySeq     atomic.Uint64 // last heartbeat's seq (backup role)
}

// ShipStats reports the cumulative entries and encoded bytes shipped to
// backups — the wire cost of replication (the ladder derives
// replica.ship_bytes_per_op from the deltas).
func (n *Node) ShipStats() (entries, bytes uint64) {
	return n.m.entriesShipped.Load(), n.m.bytesShipped.Load()
}

// WriteClusterJSON writes the cluster health document served at
// /cluster.json: the node's role, epoch, log position, durability floor,
// and — on a primary — one row per live backup link with its ack distance,
// buffered bytes, and ship lag. One lock hold, one consistent snapshot.
func (n *Node) WriteClusterJSON(w io.Writer) error {
	role := n.Role()
	n.mu.Lock()
	seq := n.seq
	quorumSeq := n.quorumSeq
	sessions := len(n.sessions)
	type row struct {
		addr     string
		acked    uint64
		lagBytes uint64
		shipLag  uint64
	}
	rows := make([]row, 0, len(n.links))
	if role == RolePrimary {
		for l := range n.links {
			rows = append(rows, row{
				addr:     l.addr,
				acked:    l.ackedSeq,
				lagBytes: uint64(len(l.out)),
				shipLag:  uint64(len(l.ends) + l.inflight),
			})
		}
	}
	n.mu.Unlock()

	floor := quorumSeq
	var ackWindow uint64
	if role == RolePrimary {
		if len(rows) > 0 && seq > quorumSeq {
			ackWindow = seq - quorumSeq
		}
	} else {
		floor = seq
	}
	var buf bytes.Buffer
	fmt.Fprintf(&buf, "{\n  \"role\": %q,\n  \"epoch\": %d,\n  \"seq\": %d,\n  \"commit_floor\": %d,\n  \"quorum\": %d,\n  \"ack_window\": %d,\n  \"sessions\": %d,\n  \"heartbeat_rtt_ns\": %d,\n  \"primary_seq\": %d,\n  \"backups\": [",
		role.String(), n.Epoch(), seq, floor, n.cfg.Quorum, ackWindow,
		sessions, n.m.heartbeatRTT.Load(), n.m.primarySeq.Load())
	for i, r := range rows {
		if i > 0 {
			buf.WriteByte(',')
		}
		lagOps := uint64(0)
		if seq > r.acked {
			lagOps = seq - r.acked
		}
		fmt.Fprintf(&buf, "\n    {\"addr\": %q, \"acked_seq\": %d, \"lag_ops\": %d, \"lag_bytes\": %d, \"ship_lag\": %d}",
			r.addr, r.acked, lagOps, r.lagBytes, r.shipLag)
	}
	if len(rows) > 0 {
		buf.WriteString("\n  ")
	}
	buf.WriteString("]")
	if f, ok := n.clusterX.Load().(func(io.Writer)); ok && f != nil {
		f(&buf)
	}
	buf.WriteString("\n}\n")
	_, err := w.Write(buf.Bytes())
	return err
}

// SetClusterExtra registers a hook that appends extra members to the
// /cluster.json document (the shard authority injects its shard table
// here). The hook is called after the document's last regular member and
// must write a leading comma.
func (n *Node) SetClusterExtra(f func(io.Writer)) {
	n.clusterX.Store(f)
}

// WriteMetrics appends the simurgh_replica_* series to a /metrics scrape.
func (n *Node) WriteMetrics(w io.Writer) {
	role := n.Role()
	n.mu.Lock()
	seq := n.seq
	backups := len(n.links)
	sessions := len(n.sessions)
	// Replication lag: on the primary, distance between the log head and
	// the slowest live backup's ack (plus unshipped buffer bytes); on a
	// backup, distance behind the primary's last advertised head.
	var lagOps, lagBytes uint64
	// Ack window: entries assigned but not yet quorum-covered (the span of
	// the sliding window). Ship lag: entries buffered or in flight toward
	// the slowest link's socket, before it has even received them.
	var ackWindow, shipLag uint64
	if role == RolePrimary {
		for l := range n.links {
			if d := seq - l.ackedSeq; d > lagOps {
				lagOps = d
			}
			if uint64(len(l.out)) > lagBytes {
				lagBytes = uint64(len(l.out))
			}
			if p := uint64(len(l.ends) + l.inflight); p > shipLag {
				shipLag = p
			}
		}
		if len(n.links) > 0 && seq > n.quorumSeq {
			ackWindow = seq - n.quorumSeq
		}
	} else if ps := n.m.primarySeq.Load(); ps > seq {
		lagOps = ps - seq
	}
	n.mu.Unlock()

	g := func(name string, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	c := func(name string, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	fmt.Fprintf(w, "# HELP simurgh_replica_role Node role (1 when active in that role).\n")
	fmt.Fprintf(w, "# TYPE simurgh_replica_role gauge\n")
	for _, r := range []Role{RolePrimary, RoleBackup} {
		v := 0
		if role == r {
			v = 1
		}
		fmt.Fprintf(w, "simurgh_replica_role{role=%q} %d\n", r.String(), v)
	}
	g("simurgh_replica_epoch", "Replication epoch (bumped on every promotion).", n.Epoch())
	g("simurgh_replica_seq", "Last log sequence assigned (primary) or applied (backup).", seq)
	g("simurgh_replica_lag_ops", "Log entries the slowest live backup is behind (or this backup is behind its primary).", lagOps)
	g("simurgh_replica_lag_bytes", "Encoded entry bytes buffered for the slowest live backup.", lagBytes)
	g("simurgh_replica_ack_window", "Entries inside the sliding ack window (assigned but not yet quorum-covered).", ackWindow)
	g("simurgh_replica_ship_lag_entries", "Entries buffered or in flight toward the slowest link's socket.", shipLag)
	g("simurgh_replica_backups", "Live backup links.", uint64(backups))
	g("simurgh_replica_sessions", "Replicated sessions carried by this node.", uint64(sessions))
	g("simurgh_replica_heartbeat_rtt_ns", "Last heartbeat round trip to a backup.", n.m.heartbeatRTT.Load())
	c("simurgh_replica_entries_shipped_total", "Log entries shipped to backups.", n.m.entriesShipped.Load())
	c("simurgh_replica_bytes_shipped_total", "Encoded log bytes shipped to backups.", n.m.bytesShipped.Load())
	c("simurgh_replica_frames_shipped_total", "Replicate frames written to backups (entries_shipped/frames_shipped is the achieved group-commit size).", n.m.framesShipped.Load())
	c("simurgh_replica_entries_applied_total", "Log entries applied by this backup.", n.m.entriesApplied.Load())
	c("simurgh_replica_apply_parallel_total", "Log entries applied through the parallel (inode-partitioned) apply path.", n.m.applyParallel.Load())
	c("simurgh_replica_replay_skipped_total", "Replayed operations skipped (unknown sessions).", n.m.replaySkipped.Load())
	c("simurgh_replica_replay_errors_total", "Replayed operations that failed (replica divergence).", n.m.replayErrors.Load())
	c("simurgh_replica_dedup_hits_total", "Client retransmissions answered from the replay cache.", n.m.dedupHits.Load())
	c("simurgh_replica_session_resumes_total", "Sessions resumed by failed-over clients.", n.m.resumes.Load())
	c("simurgh_replica_snapshot_bytes_total", "Snapshot bytes streamed to joining backups.", n.m.snapshotBytes.Load())
	c("simurgh_replica_joins_total", "Backups that completed a join.", n.m.joins.Load())
	c("simurgh_replica_promotions_total", "Times this node promoted itself to primary.", n.m.promotions.Load())
}
