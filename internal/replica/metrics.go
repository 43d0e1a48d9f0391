package replica

import (
	"fmt"
	"io"
	"sync/atomic"

	"simurgh/internal/export"
	"simurgh/internal/shard"
)

// counters are the node's replication metrics, exported as Prometheus
// series through WriteMetrics (an export.Extra).
type counters struct {
	entriesShipped atomic.Uint64
	bytesShipped   atomic.Uint64
	framesShipped  atomic.Uint64
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

// ClusterHealth is the replication group's health as one node sees it:
// its role, epoch, log position, durability floor, and — on a primary —
// one row per live backup link. Node.ClusterHealth builds it under one
// log-lock hold; /cluster.json is its JSON encoding, and the
// simurgh_replica_* gauges and /healthz's detail lines read the same value.
type ClusterHealth struct {
	Role           string       `json:"role"`
	Epoch          uint64       `json:"epoch"`
	Seq            uint64       `json:"seq"`
	CommitFloor    uint64       `json:"commit_floor"`
	Quorum         int          `json:"quorum"`
	AckWindow      uint64       `json:"ack_window"` // assigned but not yet quorum-covered
	Sessions       int          `json:"sessions"`
	HeartbeatRTTNs uint64       `json:"heartbeat_rtt_ns"`
	PrimarySeq     uint64       `json:"primary_seq"` // last advertised primary head (backup role)
	Backups        []BackupLink `json:"backups"`
	// ShardEpoch and Shards are the shard table of a sharded node, filled
	// by whoever wires the node to its shard.Authority (simurghd).
	ShardEpoch uint64      `json:"shard_epoch,omitempty"`
	Shards     []shard.Row `json:"shards,omitempty"`
}

// BackupLink is one live backup link of a primary.
type BackupLink struct {
	Addr     string `json:"addr"`
	AckedSeq uint64 `json:"acked_seq"`
	LagOps   uint64 `json:"lag_ops"`   // log entries not yet acknowledged
	LagBytes uint64 `json:"lag_bytes"` // encoded entry bytes buffered for it
	ShipLag  uint64 `json:"ship_lag"`  // entries buffered or in flight toward its socket
}

// ClusterHealth builds the node's health document under one log-lock hold.
func (n *Node) ClusterHealth() ClusterHealth {
	n.mu.Lock()
	defer n.mu.Unlock()
	role := n.Role()
	h := ClusterHealth{
		Role: role.String(), Epoch: n.Epoch(), Seq: n.seq, CommitFloor: n.seq, Quorum: n.cfg.Quorum,
		Sessions: len(n.sessions), HeartbeatRTTNs: n.m.heartbeatRTT.Load(), PrimarySeq: n.m.primarySeq.Load(),
		Backups: make([]BackupLink, 0, len(n.links)),
	}
	if role == RolePrimary {
		h.CommitFloor = n.quorumSeq
		if len(n.links) > 0 && n.seq > n.quorumSeq {
			h.AckWindow = n.seq - n.quorumSeq
		}
	}
	for l := range n.links {
		h.Backups = append(h.Backups, BackupLink{
			Addr: l.addr, AckedSeq: l.ackedSeq, LagOps: n.seq - l.ackedSeq,
			LagBytes: uint64(len(l.out)), ShipLag: uint64(len(l.ends) + l.inflight),
		})
	}
	return h
}

// WriteMetrics appends the simurgh_replica_* series to a /metrics scrape.
// The gauges read one ClusterHealth: lag is the slowest backup's on a
// primary, and the distance behind the primary's advertised head on a
// backup.
func (n *Node) WriteMetrics(w io.Writer) {
	h := n.ClusterHealth()
	var lagOps, lagBytes, shipLag uint64
	for _, b := range h.Backups {
		lagOps, lagBytes, shipLag = max(lagOps, b.LagOps), max(lagBytes, b.LagBytes), max(shipLag, b.ShipLag)
	}
	if h.Role != RolePrimary.String() && h.PrimarySeq > h.Seq {
		lagOps = h.PrimarySeq - h.Seq
	}
	export.WriteHeader(w, "simurgh_replica_role", "gauge", "Node role (1 when active in that role).")
	for _, r := range []Role{RolePrimary, RoleBackup} {
		v := 0
		if h.Role == r.String() {
			v = 1
		}
		fmt.Fprintf(w, "simurgh_replica_role{role=%q} %d\n", r.String(), v)
	}
	g := func(name, help string, v uint64) { export.WriteScalar(w, name, "gauge", help, v) }
	c := func(name, help string, v uint64) { export.WriteScalar(w, name, "counter", help, v) }
	g("simurgh_replica_epoch", "Replication epoch (bumped on every promotion).", h.Epoch)
	g("simurgh_replica_seq", "Last log sequence assigned (primary) or applied (backup).", h.Seq)
	g("simurgh_replica_lag_ops", "Log entries the slowest live backup is behind (or this backup is behind its primary).", lagOps)
	g("simurgh_replica_lag_bytes", "Encoded entry bytes buffered for the slowest live backup.", lagBytes)
	g("simurgh_replica_ack_window", "Entries inside the sliding ack window (assigned but not yet quorum-covered).", h.AckWindow)
	g("simurgh_replica_ship_lag_entries", "Entries buffered or in flight toward the slowest link's socket.", shipLag)
	g("simurgh_replica_backups", "Live backup links.", uint64(len(h.Backups)))
	g("simurgh_replica_sessions", "Replicated sessions carried by this node.", uint64(h.Sessions))
	g("simurgh_replica_heartbeat_rtt_ns", "Last heartbeat round trip to a backup.", h.HeartbeatRTTNs)
	c("simurgh_replica_entries_shipped_total", "Log entries shipped to backups.", n.m.entriesShipped.Load())
	c("simurgh_replica_bytes_shipped_total", "Encoded log bytes shipped to backups.", n.m.bytesShipped.Load())
	c("simurgh_replica_frames_shipped_total", "Replicate frames written to backups (entries_shipped/frames_shipped is the achieved group-commit size).", n.m.framesShipped.Load())
	c("simurgh_replica_replay_skipped_total", "Replayed operations skipped (unknown sessions).", n.m.replaySkipped.Load())
	c("simurgh_replica_replay_errors_total", "Replayed operations that failed (replica divergence).", n.m.replayErrors.Load())
	c("simurgh_replica_snapshot_bytes_total", "Snapshot bytes streamed to joining backups.", n.m.snapshotBytes.Load())
	c("simurgh_replica_joins_total", "Backups that completed a join.", n.m.joins.Load())
	c("simurgh_replica_promotions_total", "Times this node promoted itself to primary.", n.m.promotions.Load())
}
