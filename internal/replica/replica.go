// Package replica adds primary–backup replication to the wire server. The
// primary assigns every state-changing operation a monotonic log sequence
// number, executes it, and ships the resulting log entry to each connected
// backup; the client is acknowledged only after a quorum of backups has
// applied the entry. Reads never leave the primary.
//
// A backup enlists with `simurghd -join <primary>`: it receives a snapshot
// of the volume (the device image), a manifest of live sessions, and then
// the live log, which it applies against shadow sessions of its own mount.
// When the primary's heartbeats stop — or an admin sends the promote frame
// — the backup bumps the epoch and starts serving as primary; clients that
// lose their connection re-resolve the group, resume their session by
// client ID, and replay unacknowledged requests, which the per-session
// replay cache answers idempotently.
//
// Scope and guarantees (see DESIGN.md §7): with quorum ≥ 1 and a live
// backup, no acknowledged write is lost when the primary dies uncleanly.
// With zero connected backups the primary acknowledges alone (availability
// over durability — the group degrades to a standalone server). Fencing of
// a resurrected old primary and multi-node consensus are out of scope: the
// epoch detects staleness, it does not arbitrate split brain.
package replica

import (
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"simurgh/internal/fsapi"
	"simurgh/internal/obs"
	"simurgh/internal/wire"
)

// Role is a node's place in the group.
type Role int32

const (
	// RoleBackup applies the primary's log and serves nothing itself.
	RoleBackup Role = iota
	// RolePrimary serves clients and ships the log.
	RolePrimary
)

func (r Role) String() string {
	if r == RolePrimary {
		return "primary"
	}
	return "backup"
}

// dedupSlots sizes a session's replay cache: direct-mapped by the low bits
// of the request ID, which is a per-session counter, so the cache holds the
// responses to the replicated requests among the session's latest dedupSlots
// IDs. It must cover every request a client could still replay after a
// failover: clients replay only requests they have no response for, and
// their in-flight window is far below this (a full batch, wire.MaxBatch
// requests, still fits).
const dedupSlots = 4096

// inoStripes sizes the per-inode lock table that pipelined data operations
// serialize on. A collision only over-serializes two files; it never
// breaks ordering.
const inoStripes = 64

// stripe maps an inode to its execution lock.
func (n *Node) stripe(ino uint64) *sync.Mutex {
	return &n.stripes[(ino*0x9e3779b97f4a7c15)>>58]
}

// dataOp reports whether a replicated operation acts on an open descriptor
// without touching the namespace or the descriptor table — the class the
// pipelined primary executes concurrently under per-inode stripes.
func dataOp(op wire.Op) bool {
	switch op {
	case wire.OpWrite, wire.OpPwrite, wire.OpFtruncate, wire.OpFallocate:
		return true
	}
	return false
}

// cachedResp is one replay-cache slot: everything the response to a
// replicated request can carry — a descriptor, a byte count and the offset a
// write ended at, or an error — plus the log sequence that must be quorum-
// covered before it is released. Stat, string, data and directory results
// belong to operations that never replicate, so a slot is 48 bytes and
// nothing hangs off it but an error's message.
type cachedResp struct {
	seq  uint64
	off  int64
	msg  string
	id   uint32
	n    uint32
	fd   fsapi.FD
	op   wire.Op
	code wire.ErrCode
}

// session is one client's server-side state, replicated across the group:
// credentials, which descriptors exist (positions are the client's), and the
// replay cache. On the node where the client is attached, client is the live
// fsapi session; on backups it is the shadow built by log replay. Either way
// it hands out the same descriptor numbers, so nothing translates them.
type session struct {
	id   uint64
	cred fsapi.Cred

	client fsapi.Client

	// The descriptor table, guarded by opGate on a primary (written under
	// its exclusive side) and by the log lock on a backup. inos holds each
	// open descriptor's inode, the key pipelined data operations stripe on;
	// opens holds how it was opened, for the join manifest; next is one past
	// the highest descriptor the session was ever handed.
	inos  map[fsapi.FD]uint64
	opens map[fsapi.FD]wire.OpenFD
	next  fsapi.FD

	// dedup answers replayed requests without re-executing them; nil until
	// the session's first replicated request. Guarded by dmu: the pipelined
	// paths mutate the cache from concurrent executors, so it cannot ride
	// the node's log lock.
	dmu   sync.Mutex
	dedup *[dedupSlots]cachedResp

	attached bool      // a live connection owns this session
	released time.Time // when the owning connection went away
}

func newSession(id uint64, cred fsapi.Cred, client fsapi.Client) *session {
	return &session{
		id:     id,
		cred:   cred,
		client: client,
		inos:   make(map[fsapi.FD]uint64),
		opens:  make(map[fsapi.FD]wire.OpenFD),
	}
}

// noteOpen records the descriptor a create or open just handed out. The
// flags kept are the ones a reopen needs: a create's write-only access,
// and an open's flags less the one-shot create, exclusive and truncate.
func (s *session) noteOpen(req *wire.Request, fd fsapi.FD) {
	o := wire.OpenFD{FD: fd, Path: strings.Clone(req.Path), Flags: uint32(fsapi.OWronly), Perm: req.Perm}
	if req.Op == wire.OpOpen {
		o.Flags = req.Flags &^ uint32(fsapi.OCreate|fsapi.OExcl|fsapi.OTrunc)
	}
	var ino uint64 // zero collapses onto one stripe, which only costs parallelism
	if st, err := s.client.Fstat(fd); err == nil {
		ino = st.Ino
	}
	s.inos[fd] = ino
	s.opens[fd] = o
	s.next = max(s.next, fd+1)
}

// noteClose forgets a closed descriptor.
func (s *session) noteClose(fd fsapi.FD) {
	delete(s.inos, fd)
	delete(s.opens, fd)
}

// cacheResp remembers a request's response for idempotent replay, in place
// of whatever the slot held: an answer dedupSlots requests old, which no
// client is still waiting for.
func (s *session) cacheResp(r *wire.Response, seq uint64) {
	s.dmu.Lock()
	if s.dedup == nil {
		s.dedup = new([dedupSlots]cachedResp)
	}
	s.dedup[r.ID%dedupSlots] = cachedResp{seq: seq, off: r.Off, msg: r.Msg, id: r.ID, n: r.N, fd: r.FD, op: r.Op, code: r.Code}
	s.dmu.Unlock()
}

// replayed returns the cached answer to request id and its log sequence, if
// the cache still holds it. An empty slot has the invalid op; no response does.
func (s *session) replayed(id uint32) (wire.Response, uint64, bool) {
	s.dmu.Lock()
	defer s.dmu.Unlock()
	if s.dedup == nil {
		return wire.Response{}, 0, false
	}
	c := &s.dedup[id%dedupSlots]
	if c.id != id || c.op == wire.OpInvalid {
		return wire.Response{}, 0, false
	}
	return wire.Response{ID: c.id, Op: c.op, Code: c.code, Msg: c.msg, FD: c.fd, N: c.n, Off: c.off}, c.seq, true
}

// Config parameterizes a Node.
type Config struct {
	// FS is the primary's mounted volume. nil for a backup (its volume
	// arrives with the snapshot).
	FS fsapi.FileSystem
	// Advertise is the wire address clients and backups should use to
	// reach this node (used in redirects and joins).
	Advertise string
	// Quorum is how many backups must acknowledge an operation before the
	// client is. Capped at the number of live backup links: a group with
	// none acknowledges alone. Default 1.
	Quorum int
	// PrimaryAddr is the primary a backup joins. Empty for a primary.
	PrimaryAddr string
	// HeartbeatInterval paces the primary's liveness beacons. Default 500ms.
	HeartbeatInterval time.Duration
	// FailoverGrace is how long a backup tolerates primary silence before
	// it promotes itself (when AutoPromote). Default 2s.
	FailoverGrace time.Duration
	// AutoPromote lets a backup promote itself after FailoverGrace without
	// primary contact.
	AutoPromote bool
	// Snapshot serializes the volume image for a joining backup. Called
	// under the log lock — mutations are paused while it runs.
	Snapshot func(w io.Writer) error
	// Restore materializes a received snapshot into a mounted file system
	// (backup side).
	Restore func(img []byte) (fsapi.FileSystem, error)
	// Logf receives replication diagnostics. Default: discard.
	Logf func(format string, args ...any)
	// ApplyHook, when set, is called by a backup before applying each log
	// entry. Test instrumentation (simulating slow or lagging backups).
	ApplyHook func(e *wire.Entry)
	// Obs receives replication spans (group commit, ship, apply, ack) for
	// sampled operations. nil disables tracing on this node: every Registry
	// method is nil-safe, so the hot paths need no guard beyond the trace ID.
	Obs *obs.Registry
}

func (c *Config) fillDefaults() {
	if c.Quorum <= 0 {
		c.Quorum = 1
	}
	if c.HeartbeatInterval <= 0 {
		c.HeartbeatInterval = 500 * time.Millisecond
	}
	if c.FailoverGrace <= 0 {
		c.FailoverGrace = 2 * time.Second
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
}

// Node is one member of a replication group. It implements the server's
// Replica interface; the same Node serves as primary or backup depending
// on its role, which promotion changes at runtime.
type Node struct {
	cfg Config

	role  atomic.Int32
	epoch atomic.Uint64

	// mu is the log lock: it guards seq assignment and shipping (log order
	// is ship order), fs, sessions, links, and the quorum window. cond
	// broadcasts quorum-window advances and membership changes.
	mu   sync.Mutex
	cond *sync.Cond

	// opGate orders pipelined execution against everything that must see a
	// quiescent volume. Data operations on open descriptors (pwrite, write,
	// ftruncate, fallocate) execute under the read side plus a
	// per-inode stripe — concurrent across files, serialized per file —
	// while namespace/descriptor operations and snapshot cuts take the
	// write side and exclude them all. Lock order is
	// opGate → stripe → mu.
	opGate  sync.RWMutex
	stripes [inoStripes]sync.Mutex

	fs       fsapi.FileSystem
	seq      uint64
	sessions map[uint64]*session
	links    map[*link]struct{}
	anonID   uint64 // synthesized session IDs for clients without one
	closed   bool

	// quorumSeq is the sliding ack window's floor: the highest sequence a
	// quorum of live backups has cumulatively applied. WaitQuorum blocks on
	// it; it advances (under mu, with one broadcast) when an ack or a
	// membership change moves the k-th-highest cumulative ack forward.
	quorumSeq uint64

	// shipBuf is the entry-encoding scratch reused by shipLocked; guarded
	// by mu like everything else on the ship path.
	shipBuf []byte

	// primaryAddr is the last known primary (named in a backup's attach refusals).
	primaryAddr atomic.Value // string

	// joinConn is the backup's live replication connection, closed by
	// Promote/Close to unblock the join loop.
	joinConn atomic.Value // net.Conn

	stop chan struct{}
	wg   sync.WaitGroup

	m counters
}

// NewPrimary builds the group's founding primary serving fs at epoch 1.
func NewPrimary(fs fsapi.FileSystem, cfg Config) *Node {
	cfg.FS = fs
	cfg.fillDefaults()
	n := newNode(cfg)
	n.fs = fs
	n.role.Store(int32(RolePrimary))
	n.epoch.Store(1)
	n.primaryAddr.Store(cfg.Advertise)
	return n
}

// NewBackup builds a backup that joins cfg.PrimaryAddr, restores the
// snapshot, and follows the log until promoted or closed.
func NewBackup(cfg Config) *Node {
	cfg.fillDefaults()
	n := newNode(cfg)
	n.role.Store(int32(RoleBackup))
	n.primaryAddr.Store(cfg.PrimaryAddr)
	n.wg.Add(1)
	go n.runBackup()
	return n
}

func newNode(cfg Config) *Node {
	n := &Node{
		cfg:      cfg,
		sessions: make(map[uint64]*session),
		links:    make(map[*link]struct{}),
		stop:     make(chan struct{}),
	}
	n.cond = sync.NewCond(&n.mu)
	return n
}

// Role reports the node's current role.
func (n *Node) Role() Role { return Role(n.role.Load()) }

// Epoch reports the node's current epoch.
func (n *Node) Epoch() uint64 { return n.epoch.Load() }

// Seq reports the last log sequence this node has assigned (primary) or
// applied (backup).
func (n *Node) Seq() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.seq
}

// CommitFloor reports the durability floor: on a primary the sliding ack
// window's floor (the highest sequence a quorum of backups has applied);
// on a backup the highest sequence it has applied itself.
func (n *Node) CommitFloor() uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	if Role(n.role.Load()) == RolePrimary {
		return n.quorumSeq
	}
	return n.seq
}

// Backups reports the number of live backup links (primary role).
func (n *Node) Backups() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.links)
}

// Health reports the node's serving state for /healthz: "serving" on a
// primary, "backup" otherwise.
func (n *Node) Health() string {
	if n.Role() == RolePrimary {
		return "serving"
	}
	return "backup"
}

// Close stops the node: the backup join loop ends, replication links
// close, and quorum waiters are released.
func (n *Node) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		n.wg.Wait()
		return
	}
	n.closed = true
	links := make([]*link, 0, len(n.links))
	for l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	close(n.stop)
	for _, l := range links {
		l.conn.Close()
	}
	if c, ok := n.joinConn.Load().(interface{ Close() error }); ok && c != nil {
		c.Close()
	}
	n.cond.Broadcast()
	n.wg.Wait()
}
